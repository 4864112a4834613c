"""Self-tests of the benchmark's checks: each must fail on a deliberately
wrong output, and the generated inputs must depend on the seed alone.

    python3 -m pytest -q bench/test_checks.py

These are not part of the tier-1 suite (pytest.ini collects tests/ only).
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from checks import CheckFailure  # noqa: E402
from workloads import WORKLOADS, generate_series, split_rows, write_csv  # noqa: E402

from tsrm import (  # noqa: E402
    ModelConfig,
    TsrmModel,
    export_attention,
    load_checkpoint,
    save_checkpoint,
)


def tiny_model() -> TsrmModel:
    cfg = ModelConfig(T=32, F=2, f_embed=4, n_layers=2, heads=2,
                      branches=[{"kernel": 3, "dilation": 1}], dropout_p=0.0)
    return TsrmModel(cfg, seed=7)


def tiny_inputs(model, n=3) -> np.ndarray:
    rng = np.random.default_rng(5)
    return rng.random((n, model.config.T, model.config.F)).astype(np.float32)


def test_row_stochastic_maps_pass_and_a_perturbed_map_fails():
    model = tiny_model()
    attention = model.forward(tiny_inputs(model)).attention
    checks.attention_row_stochastic(attention)
    wrong = attention.copy()
    wrong[1, 0, 1] *= 1.01                # one map whose rows no longer sum to one
    with pytest.raises(CheckFailure):
        checks.attention_row_stochastic(wrong)


def test_forecast_worse_than_persistence_fails():
    # a series that holds its last value: persistence is exact
    windows = np.repeat(np.linspace(0.1, 0.9, 4)[:, None, None], 12, axis=1)
    windows = np.concatenate([windows, windows], axis=2)
    windows[0, 7, 1] = np.nan             # the last history value is missing; the one before counts
    baseline = checks.persistence_mse(windows, input_len=8)
    assert baseline == 0.0
    checks.beats_persistence(-1.0, 0.5)
    with pytest.raises(CheckFailure):
        checks.beats_persistence(0.01, baseline)


def test_persistence_mse_against_a_hand_computation():
    w = np.array([[[1.0], [2.0], [np.nan], [4.0], [np.nan]]])   # history 1, 2, nan; horizon 4, nan
    assert checks.persistence_mse(w, input_len=3) == (4.0 - 2.0) ** 2


def classifier_names(model) -> list:
    return [n for n in model.params if n.startswith("ac.")]


def frozen_now(model) -> dict:
    return {p.name: p.data.copy() for p in model.params.values() if p.frozen}


def test_changed_frozen_parameter_fails():
    model = tiny_model()
    model.freeze(lambda name: name.startswith("ac."))
    before = frozen_now(model)
    expected = classifier_names(model)
    checks.frozen_unchanged(before, {n: model.params[n].data for n in before}, expected)
    p = model.params["ac.head.w2"]
    p.tensor.data = p.data.copy()
    p.tensor.data[0, 0] = np.nextafter(p.data[0, 0], np.float32(np.inf))
    with pytest.raises(CheckFailure):
        checks.frozen_unchanged(before, {n: model.params[n].data for n in before}, expected)


def test_nothing_or_too_little_frozen_fails():
    model = tiny_model()
    expected = classifier_names(model)
    assert expected
    with pytest.raises(CheckFailure):       # training would update the classifier unseen
        checks.frozen_unchanged({}, {}, expected)
    model.freeze(lambda name: name == expected[0])
    before = frozen_now(model)
    with pytest.raises(CheckFailure):
        checks.frozen_unchanged(before, {n: model.params[n].data for n in before}, expected)
    with pytest.raises(CheckFailure):       # a model without a classifier to freeze
        checks.frozen_unchanged({}, {}, [])


def test_checkpoint_reload_with_one_flipped_weight_fails(tmp_path):
    model = tiny_model()
    x = tiny_inputs(model)
    save_checkpoint(model, tmp_path)
    trace = model.forward(x)
    expected = [trace.output.data, trace.class_logits.data, trace.attention]

    same = load_checkpoint(tmp_path).forward(x)
    checks.bitwise_equal(expected, [same.output.data, same.class_logits.data, same.attention],
                         "reload")

    blob = bytearray((tmp_path / "params.bin").read_bytes())
    blob[0] ^= 0x01                       # lowest mantissa bit of embed.w[0, 0]
    (tmp_path / "params.bin").write_bytes(bytes(blob))
    flipped = load_checkpoint(tmp_path).forward(x)
    with pytest.raises(CheckFailure):
        checks.bitwise_equal(expected, [flipped.output.data, flipped.class_logits.data,
                                        flipped.attention], "reload")


def test_explain_csv_with_a_wrong_weight_sum_fails(tmp_path):
    model = tiny_model()
    values = tiny_inputs(model, 1)[0]
    paths = export_attention(model, values, np.ones_like(values, dtype=bool), tmp_path)
    T, N = model.config.T, model.config.n_layers
    for path in paths:
        checks.explain_csv(path, T, N)
    lines = paths[0].read_text().splitlines()
    cells = lines[5].split(",")
    cells[3] = repr(float(cells[3]) + 0.01)
    lines[5] = ",".join(cells)
    paths[0].write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailure):
        checks.explain_csv(paths[0], T, N)


def test_loss_and_mae_checks_fail_on_wrong_values():
    checks.loss_decreased([1.0, 0.7, 0.5], 0.9)
    with pytest.raises(CheckFailure):
        checks.loss_decreased([1.0, 0.7, 0.95], 0.9)
    checks.values_match(0.25, 0.25 * (1 + 1e-7), "mae")
    with pytest.raises(CheckFailure):
        checks.values_match(0.25, 0.26, "mae")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_on_the_seed_only(name, tmp_path):
    w = WORKLOADS[name]
    write_csv(generate_series(w, 11), tmp_path / "a.csv")
    np.random.seed(99)                    # global numpy state must not leak in
    np.random.random(1000)
    write_csv(generate_series(w, 11), tmp_path / "b.csv")
    write_csv(generate_series(w, 12), tmp_path / "c.csv")
    a = (tmp_path / "a.csv").read_bytes()
    assert a == (tmp_path / "b.csv").read_bytes()
    assert a != (tmp_path / "c.csv").read_bytes()
    # the seed draws the held-out rows; the rows training sees stay put
    test = split_rows(w.rows)[2]
    s11, s12 = generate_series(w, 11), generate_series(w, 12)
    np.testing.assert_array_equal(s11[: test.start], s12[: test.start])
    assert not np.array_equal(s11[test], s12[test], equal_nan=True)
    series = generate_series(w, 11)
    assert series.shape == (w.rows, w.features)
    missing = np.isnan(series).mean()
    assert 0.01 < missing < 0.05
