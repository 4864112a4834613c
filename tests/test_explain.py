"""Back-mapping of attention vectors and the export format."""

import contextlib
import csv
import io

import numpy as np
import pytest

import tsrm.explain as explain_module
from tsrm.autodiff import no_grad
from tsrm.errors import ConfigError
from tsrm.explain import backmap, backmap_branch, backmapped_layers, export_attention
from tsrm.finetune import TaskSpec, prepare_finetune
from tsrm.model import BranchSpec, ModelConfig, TsrmModel

from helpers import spy_forward


def coverage_oracle(weights, k, dilation, stride, T, mode="mean"):
    """Direct loop over windows and their dilated taps."""
    num = np.zeros(T)
    cover = np.zeros(T)
    for p, w in enumerate(weights):
        for j in range(k):
            t = p * stride + j * dilation
            num[t] += w
            cover[t] += 1
    if mode == "sum":
        return num / k
    out = np.zeros(T)
    out[cover > 0] = num[cover > 0] / cover[cover > 0]
    return out


def branch(k, d, T, stride=None):
    return BranchSpec(kernel=k, dilation=d, stride=stride).resolve(T)


class TestBackmapBranch:
    def test_constant_weights_spread_constant(self):
        rb = branch(3, 1, 5, stride=1)
        out = backmap_branch(np.array([3.0, 3.0, 3.0]), rb, 5)
        np.testing.assert_allclose(out, [3, 3, 3, 3, 3])

    def test_single_window_weight(self):
        rb = branch(3, 1, 5, stride=1)
        out = backmap_branch(np.array([1.0, 0.0, 0.0]), rb, 5)
        np.testing.assert_allclose(out, [1.0, 0.5, 1.0 / 3.0, 0.0, 0.0])

    def test_matches_coverage_oracle_on_random_cases(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            T = int(rng.integers(10, 60))
            k = int(rng.integers(1, 8))
            d = int(rng.integers(1, 4))
            if (k - 1) * d + 1 > T:
                continue
            rb = branch(k, d, T)
            w = rng.random(rb.conv_len)
            for mode in ("mean", "sum"):
                got = backmap_branch(w, rb, T, mode=mode)
                want = coverage_oracle(w, rb.k, rb.dilation, rb.stride, T, mode=mode)
                np.testing.assert_allclose(got, want, atol=1e-10)

    def test_uniform_map_nearly_constant_interior(self):
        rb = branch(3, 1, 32, stride=1)
        out = backmap_branch(np.ones(rb.conv_len), rb, 32)
        np.testing.assert_allclose(out[2:-2], 1.0, atol=1e-12)

    def test_sum_mode_conserves_total(self):
        rng = np.random.default_rng(1)
        for k, d, T in ((3, 1, 20), (5, 2, 40), (4, 3, 33), (1, 1, 12)):
            rb = branch(k, d, T)
            w = rng.random(rb.conv_len)
            out = backmap_branch(w, rb, T, mode="sum")
            np.testing.assert_allclose(out.sum(), w.sum(), rtol=1e-12)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            backmap_branch(np.ones(3), branch(3, 1, 5, stride=1), 5, mode="max")


class TestBackmap:
    def layout(self, T=48):
        cfg = ModelConfig(T=T, F=1, f_embed=4, n_layers=1, heads=2,
                          branches=[{"kernel": 3, "dilation": 1},
                                    {"kernel": 5, "dilation": 2}])
        return cfg.resolved_branches, cfg.D, T

    def test_linearity_exact(self):
        branches, D, T = self.layout()
        rng = np.random.default_rng(2)
        a, b = rng.random(D), rng.random(D)
        for mode in ("mean", "sum"):
            lhs = backmap(a + b, branches, T, mode=mode)
            rhs = backmap(a, branches, T, mode=mode) + backmap(b, branches, T, mode=mode)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_nonnegativity(self):
        branches, D, T = self.layout()
        rng = np.random.default_rng(3)
        for mode in ("mean", "sum"):
            assert (backmap(rng.random(D), branches, T, mode=mode) >= 0).all()

    def test_pooled_segments_never_matter(self):
        branches, D, T = self.layout()
        rng = np.random.default_rng(4)
        vec = rng.random(D)
        base = backmap(vec, branches, T)
        poisoned = vec.copy()
        offset = 0
        for rb in branches:
            poisoned[offset + rb.conv_len: offset + rb.conv_len + rb.pool_len] = 99.0
            offset += rb.conv_len + rb.pool_len
        np.testing.assert_array_equal(base, backmap(poisoned, branches, T))

    def test_sum_mode_conserves_conv_segment_mass(self):
        branches, D, T = self.layout()
        rng = np.random.default_rng(5)
        vec = rng.random(D)
        conv_mass = 0.0
        offset = 0
        for rb in branches:
            conv_mass += vec[offset: offset + rb.conv_len].sum()
            offset += rb.conv_len + rb.pool_len
        out = backmap(vec, branches, T, mode="sum")
        np.testing.assert_allclose(out.sum(), conv_mass, rtol=1e-10)

    def test_stacked_vectors_map_like_single_ones(self):
        branches, D, T = self.layout()
        vectors = np.random.default_rng(8).random((3, 2, D))
        for mode in ("mean", "sum"):
            stacked = backmap(vectors, branches, T, mode=mode)
            assert stacked.shape == (3, 2, T)
            for idx in np.ndindex(3, 2):
                np.testing.assert_array_equal(stacked[idx],
                                              backmap(vectors[idx], branches, T, mode=mode))

    def test_layout_mismatch_rejected(self):
        branches, D, T = self.layout()
        with pytest.raises(ConfigError, match="layout"):
            backmap(np.ones(D + 1), branches, T)


class TestExport:
    def make_model(self):
        cfg = ModelConfig(T=24, F=2, f_embed=4, n_layers=2, heads=2,
                          branches=[{"kernel": 3, "dilation": 1}], dropout_p=0.0)
        return TsrmModel(cfg, seed=0)

    def test_csv_shape_and_self_consistency(self, tmp_path):
        model = self.make_model()
        rng = np.random.default_rng(6)
        values = rng.random((24, 2)).astype(np.float32)
        observed = np.ones((24, 2), dtype=bool)
        paths = export_attention(model, values, observed, tmp_path)
        assert len(paths) == 2
        for path in paths:
            lines = path.read_text().splitlines()
            assert len(lines) == 25  # header + T rows
            header = lines[0].split(",")
            assert header == ["t", "input_value", "output_value", "weight_sum",
                              "weight_layer_1", "weight_layer_2"]
            for line in lines[1:]:
                cells = [float(c) for c in line.split(",")]
                np.testing.assert_allclose(cells[3], cells[4] + cells[5], rtol=1e-6)

    def test_reexport_is_byte_identical(self, tmp_path):
        model = self.make_model()
        rng = np.random.default_rng(7)
        values = rng.random((24, 2)).astype(np.float32)
        observed = np.ones((24, 2), dtype=bool)
        a = export_attention(model, values, observed, tmp_path / "a")
        b = export_attention(model, values, observed, tmp_path / "b")
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_export_over_an_earlier_one_replaces_its_files(self, tmp_path):
        model = self.make_model()
        observed = np.ones((24, 2), dtype=bool)
        first = export_attention(model, np.zeros((24, 2), dtype=np.float32), observed,
                                 tmp_path / "out", svg=True)
        kept = [tmp_path / f"kept{i}" for i in range(len(first))]
        for path, link in zip(first, kept):
            link.hardlink_to(path)
        old = [link.read_bytes() for link in kept]
        values = np.random.default_rng(10).random((24, 2)).astype(np.float32)
        second = export_attention(model, values, observed, tmp_path / "out", svg=True)
        fresh = export_attention(model, values, observed, tmp_path / "fresh", svg=True)
        assert second == first
        # new files, not the earlier ones truncated and rewritten
        assert [link.read_bytes() for link in kept] == old
        for pa, pb in zip(second, fresh):
            assert pa.read_bytes() == pb.read_bytes()

    def test_export_is_graph_free_and_matches_a_recorded_forward(self, tmp_path, monkeypatch):
        model = self.make_model()
        values = np.random.default_rng(9).random((24, 2)).astype(np.float32)
        observed = np.ones((24, 2), dtype=bool)
        calls = spy_forward(model)
        free = export_attention(model, values, observed, tmp_path / "free")
        monkeypatch.setattr(explain_module, "no_grad", contextlib.nullcontext)
        recorded = export_attention(model, values, observed, tmp_path / "recorded")
        assert [graph for _, graph in calls] == [False, True]
        for pa, pb in zip(free, recorded):
            assert pa.read_bytes() == pb.read_bytes()

    def test_svg_written_when_requested(self, tmp_path):
        model = self.make_model()
        values = np.full((24, 2), 0.5, dtype=np.float32)
        observed = np.ones((24, 2), dtype=bool)
        paths = export_attention(model, values, observed, tmp_path, svg=True)
        svgs = [p for p in paths if p.suffix == ".svg"]
        assert len(svgs) == 2
        assert svgs[0].read_text().startswith("<svg")

    def test_backmapped_layers_shape(self):
        model = self.make_model()
        trace = model.forward(np.zeros((1, 24, 2), dtype=np.float32))
        layers = backmapped_layers(model, trace.attention)
        assert layers.shape == (2, 2, 24)
        assert (layers >= 0).all()


def reference_svg(inputs, outputs, weights):
    """The SVG plot drawn from numpy scalars, one element at a time."""
    T = len(inputs)
    width, height, pad = 900, 300, 30
    lo = float(min(inputs.min(), outputs.min(), 0.0))
    hi = float(max(inputs.max(), outputs.max(), 1.0))
    w_max = float(weights.max()) or 1.0

    def x(t):
        return pad + t * (width - 2 * pad) / max(T - 1, 1)

    def y(v):
        return height - pad - (v - lo) * (height - 2 * pad) / (hi - lo)

    bars = []
    for t in range(T):
        h = weights[t] / w_max * (height - 2 * pad)
        bars.append(f'<rect x="{x(t) - 1:.2f}" y="{height - pad - h:.2f}" width="2" '
                    f'height="{h:.2f}" fill="#d33" opacity="0.45"/>')
    in_pts = " ".join(f"{x(t):.2f},{y(float(inputs[t])):.2f}" for t in range(T))
    out_pts = " ".join(f"{x(t):.2f},{y(float(outputs[t])):.2f}" for t in range(T))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<rect width="100%" height="100%" fill="white"/>'
        + "".join(bars)
        + f'<polyline points="{in_pts}" fill="none" stroke="#2a2" stroke-width="1.5"/>'
        + f'<polyline points="{out_pts}" fill="none" stroke="#36c" stroke-width="1.5"/>'
        + "</svg>"
    )


def reference_export(model, values, observed, svg=False, mode="mean"):
    """File name -> bytes of an export written row by row with csv.writer
    and one f"{v:.8g}" per numpy scalar."""
    cfg = model.config
    visible = observed.copy()
    if model.task == "forecast":
        visible[model.task_spec["input_len"]:] = False
    filled = np.nan_to_num(values, nan=0.0).astype(np.float32)
    model_input = np.where(visible, filled, -1.0).astype(np.float32)
    with no_grad():
        trace = model.forward(model_input[None])
    layers = backmapped_layers(model, trace.attention, 0, mode=mode)
    weight_sum = layers.sum(axis=0)
    output = trace.output.data[0]
    files = {}
    for f in range(cfg.F):
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["t", "input_value", "output_value", "weight_sum"]
                        + [f"weight_layer_{n + 1}" for n in range(cfg.n_layers)])
        for t in range(cfg.T):
            writer.writerow([t, f"{model_input[t, f]:.8g}", f"{output[t, f]:.8g}",
                             f"{weight_sum[f, t]:.8g}"]
                            + [f"{layers[n, f, t]:.8g}" for n in range(cfg.n_layers)])
        files[f"attention_feature_{f}.csv"] = buf.getvalue().encode()
        if svg:
            files[f"attention_feature_{f}.svg"] = reference_svg(
                model_input[:, f], output[:, f], weight_sum[f]).encode()
    return files


class TestExportBytes:
    """export_attention writes the bytes of the row-by-row reference."""

    def model(self, forecast=False):
        cfg = ModelConfig(T=32, F=2, f_embed=4, n_layers=2, heads=2,
                          branches=[{"kernel": 3, "dilation": 1},
                                    {"kernel": 5, "dilation": 2}], dropout_p=0.0)
        model = TsrmModel(cfg, seed=3)
        if forecast:
            model = prepare_finetune(model, TaskSpec("forecast", horizon=8, input_len=24))
        return model

    def window(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.random((32, 2)).astype(np.float32)
        observed = rng.random((32, 2)) > 0.1
        return values, observed

    def assert_same_bytes(self, tmp_path, model, values, observed, **kwargs):
        paths = export_attention(model, values, observed, tmp_path, **kwargs)
        want = reference_export(model, values, observed, **kwargs)
        assert [p.name for p in paths] == list(want)
        for path in paths:
            assert path.read_bytes() == want[path.name], path.name

    @pytest.mark.parametrize("mode", ["mean", "sum"])
    def test_two_features_two_layers(self, tmp_path, mode):
        self.assert_same_bytes(tmp_path, self.model(), *self.window(11), mode=mode)

    def test_forecast_hides_its_horizon(self, tmp_path):
        values, observed = self.window(12)
        observed[:] = True
        self.assert_same_bytes(tmp_path, self.model(forecast=True), values, observed)
        rows = (tmp_path / "attention_feature_0.csv").read_text().splitlines()[1:]
        assert [r.split(",")[1] for r in rows[24:]] == ["-1"] * 8

    def test_inputs_of_exactly_zero_and_one(self, tmp_path):
        values, observed = self.window(13)
        values[::2] = 0.0
        values[1::2] = 1.0
        self.assert_same_bytes(tmp_path, self.model(), values, observed)
        cells = {r.split(",")[1] for r in
                 (tmp_path / "attention_feature_1.csv").read_text().splitlines()[1:]}
        assert {"0", "1"} <= cells

    def test_svg(self, tmp_path):
        self.assert_same_bytes(tmp_path, self.model(), *self.window(14), svg=True)

    def test_each_csv_is_written_inside_one_module_level_open(self, tmp_path, monkeypatch):
        # a benchmark's write span replaces the module's open with a shim that
        # works only as a context manager; each file must enter it once
        entered = []

        class ContextOnlyOpen:
            def __init__(self, *args, **kwargs):
                self._args, self._kwargs = args, kwargs

            def __enter__(self):
                entered.append(self._args[0])
                self._fh = open(*self._args, **self._kwargs)
                return self._fh.__enter__()

            def __exit__(self, *exc):
                return self._fh.__exit__(*exc)

        monkeypatch.setattr(explain_module, "open", ContextOnlyOpen, raising=False)
        model, (values, observed) = self.model(), self.window(15)
        paths = export_attention(model, values, observed, tmp_path)
        assert entered == paths
        want = reference_export(model, values, observed)
        assert {p.name: p.read_bytes() for p in paths} == want
