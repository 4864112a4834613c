"""CSV ingestion, normalization, windowing, and synthetic data."""

import numpy as np
import pytest

from tsrm.data import (
    DatasetSpec,
    NormStats,
    compute_stats,
    load_csv,
    normalize,
    split_series,
    synth_dataset,
    window,
)
from tsrm.errors import ConfigError, DataError


class TestLoadCsv:
    def write(self, tmp_path, text, name="d.csv"):
        p = tmp_path / name
        p.write_text(text)
        return p

    def test_basic_with_missing(self, tmp_path):
        p = self.write(tmp_path, "t,v\n0,1.5\n1,\n2,2.0\n")
        values, names, _ = load_csv(p)
        assert names == ["v"]
        np.testing.assert_array_equal(np.isnan(values[:, 0]), [False, True, False])
        np.testing.assert_allclose(values[[0, 2], 0], [1.5, 2.0])

    def test_nan_cell_is_missing(self, tmp_path):
        p = self.write(tmp_path, "v\n1.0\nnan\nNaN\n")
        values, _, _ = load_csv(p)
        np.testing.assert_array_equal(np.isnan(values[:, 0]), [False, True, True])

    def test_unparseable_cell_reports_row_and_column(self, tmp_path):
        p = self.write(tmp_path, "a,b\n1,2\n3,oops\n")
        with pytest.raises(DataError, match=r"row 3.*'b'"):
            load_csv(p)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e999", "Infinity"])
    def test_infinite_cell_reports_row_and_column(self, tmp_path, cell):
        p = self.write(tmp_path, f"a,b\n1,2\n3,4\n5,{cell}\n")
        with pytest.raises(DataError, match=rf"non-finite cell '{cell}' at row 4, column 'b'"):
            load_csv(p)

    def test_infinite_label_reports_row(self, tmp_path):
        p = self.write(tmp_path, "v,y\n0.1,0\n0.2,inf\n")
        with pytest.raises(DataError, match="unparseable label 'inf' at row 3"):
            load_csv(p, label_column="y")

    @pytest.mark.parametrize("cell", ["1.7", "-0.5", "1e-3"])
    def test_non_integral_label_reports_row(self, tmp_path, cell):
        # a class label is not rounded to the class below it
        p = self.write(tmp_path, f"v,y\n0.1,2.0\n0.2,{cell}\n")
        with pytest.raises(DataError, match=f"unparseable label '{cell}' at row 3"):
            load_csv(p, label_column="y")
        _, _, labels = load_csv(self.write(tmp_path, "v,y\n0.1,2.0\n", "ok.csv"), label_column="y")
        np.testing.assert_array_equal(labels, [2])

    def test_missing_declared_column(self, tmp_path):
        p = self.write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(DataError, match="lacks declared columns"):
            load_csv(p, feature_columns=["a", "c"])

    def test_header_only_fails_at_windowing(self, tmp_path):
        p = self.write(tmp_path, "a,b\n")
        values, _, _ = load_csv(p)
        assert values.shape == (0, 2)
        with pytest.raises(DataError, match="shorter than the window"):
            window(values, T=4, stride=1)

    def test_label_column(self, tmp_path):
        p = self.write(tmp_path, "v,y\n0.1,0\n0.2,1\n0.3,1\n")
        values, names, labels = load_csv(p, label_column="y")
        assert names == ["v"]
        np.testing.assert_array_equal(labels, [0, 1, 1])

    def test_explicit_columns_keep_order(self, tmp_path):
        p = self.write(tmp_path, "a,b,c\n1,2,3\n")
        values, names, _ = load_csv(p, feature_columns=["c", "a"])
        assert names == ["c", "a"]
        np.testing.assert_allclose(values[0], [3.0, 1.0])


class TestNormalization:
    def test_midpoint(self):
        stats = NormStats(np.array([0.0]), np.array([10.0]))
        out, clamped = normalize(np.array([[5.0]]), stats)
        assert out[0, 0] == 0.5 and clamped == 0

    def test_endpoints(self):
        stats = NormStats(np.array([2.0]), np.array([4.0]))
        out, _ = normalize(np.array([[2.0], [4.0]]), stats)
        np.testing.assert_array_equal(out[:, 0], [0.0, 1.0])

    def test_clamp_rule(self):
        stats = NormStats(np.array([0.0]), np.array([10.0]))
        out, clamped = normalize(np.array([[12.0], [-1.0], [5.0]]), stats)
        np.testing.assert_array_equal(out[:, 0], [1.0, 0.0, 0.5])
        assert clamped == 2

    def test_missing_untouched(self):
        stats = NormStats(np.array([0.0]), np.array([1.0]))
        out, _ = normalize(np.array([[np.nan], [0.5]]), stats)
        assert np.isnan(out[0, 0])

    @pytest.mark.parametrize("n_cols", [1, 2])
    def test_column_count_must_match_stats(self, n_cols):
        # a single column would otherwise broadcast against all three features
        stats = NormStats(np.zeros(3), np.ones(3))
        with pytest.raises(DataError, match=f"{n_cols} columns .* cover 3 features"):
            normalize(np.full((4, n_cols), 0.5), stats)

    def test_constant_feature_rejected_by_name(self):
        with pytest.raises(DataError, match="'b'.*constant|b.*constant"):
            compute_stats(np.array([[1.0, 2.0], [3.0, 2.0]]), ["a", "b"])

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        raw = rng.uniform(-5, 20, size=(50, 3))
        stats = compute_stats(raw)
        out, _ = normalize(raw, stats)
        np.testing.assert_allclose(out * (stats.maxs - stats.mins) + stats.mins, raw, atol=1e-6)

    def test_stats_ignore_validation_and_test_rows(self):
        rng = np.random.default_rng(1)
        raw = rng.uniform(0, 1, size=(100, 2))
        train_slice, _, _ = split_series(100)
        stats = compute_stats(raw[train_slice])
        mutated = raw.copy()
        mutated[80:] *= 100.0  # test rows only
        stats2 = compute_stats(mutated[train_slice])
        np.testing.assert_array_equal(stats.mins, stats2.mins)
        np.testing.assert_array_equal(stats.maxs, stats2.maxs)


class TestSplits:
    def test_default_fractions(self):
        tr, va, te = split_series(100)
        assert (tr, va, te) == (slice(0, 60), slice(60, 80), slice(80, 100))

    def test_disjoint_and_chronological(self):
        tr, va, te = split_series(97, (0.6, 0.2, 0.2))
        assert tr.stop == va.start and va.stop == te.start and te.stop == 97

    def test_bad_fractions_rejected(self):
        with pytest.raises(ConfigError):
            DatasetSpec(split_fractions=(0.5, 0.2, 0.2))


class TestWindowing:
    def test_window_count_formula(self):
        series = np.zeros((100, 1))
        ds = window(series, T=96, stride=4)
        assert len(ds) == 2  # starts at 0 and 4

    def test_stride_equal_window_partitions(self):
        series = np.arange(12, dtype=float).reshape(12, 1)
        ds = window(series, T=4, stride=4)
        assert len(ds) == 3
        np.testing.assert_array_equal(ds.values[1, :, 0], [4, 5, 6, 7])

    def test_mostly_missing_window_dropped(self):
        series = np.ones((8, 1))
        series[4:, 0] = np.nan
        ds = window(series, T=4, stride=4)  # second window is all-missing
        assert len(ds) == 1

    def test_too_short_series(self):
        with pytest.raises(DataError, match="shorter"):
            window(np.zeros((5, 1)), T=6, stride=1)

    def test_labels_from_last_row(self):
        series = np.zeros((8, 1))
        labels = np.array([0, 0, 0, 1, 1, 1, 2, 2])
        ds = window(series, T=4, stride=4, labels=labels)
        np.testing.assert_array_equal(ds.labels, [1, 2])


class TestSynthData:
    def test_sine_range(self):
        ds = synth_dataset("sine", T=96, F=2, n=50, seed=0)
        assert ds.values.min() >= 0.1 - 1e-6
        assert ds.values.max() <= 0.9 + 1e-6
        assert ds.observed.all()

    def test_deterministic(self):
        a = synth_dataset("sine", T=48, F=1, n=10, seed=7)
        b = synth_dataset("sine", T=48, F=1, n=10, seed=7)
        np.testing.assert_array_equal(a.values, b.values)

    def test_noise_autocorrelation_near_zero(self):
        ds = synth_dataset("noise", T=96, F=1, n=200, seed=1)
        rhos = []
        for i in range(len(ds)):
            x = ds.values[i, :, 0] - ds.values[i, :, 0].mean()
            rhos.append((x[:-1] * x[1:]).sum() / (x * x).sum())
        assert abs(np.mean(rhos)) < 0.05

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            synth_dataset("sawtooth", 96, 1, 1)


class TestDatasetSpec:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown data config"):
            DatasetSpec.from_dict({"window": 96, "bogus": True})

    def test_round_trip(self):
        spec = DatasetSpec(feature_columns=["v"], window=48, stride=24)
        assert DatasetSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()
