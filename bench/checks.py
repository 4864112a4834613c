"""Correctness checks on the program's outputs.

Each check compares an output against a property of the method or against
a numpy computation made here, apart from the program; none compares
against a stored copy of an earlier output. A check returns nothing when
the output is right and raises ``CheckFailure`` when it is wrong.
"""

from __future__ import annotations

import csv
import math

import numpy as np


class CheckFailure(Exception):
    pass


def _fail(message: str):
    raise CheckFailure(message)


def attention_row_stochastic(attention: np.ndarray) -> None:
    """Every reduced attention vector [N, B, F, D] sums to D: each of the D
    rows of a map sums to one, and the reduction sums over the rows."""
    D = attention.shape[-1]
    if not np.isfinite(attention).all() or (attention < 0).any():
        _fail("attention vectors hold negative or non-finite weights")
    sums = attention.astype(np.float64).sum(axis=-1)
    # float32 rows, each normalised to within a few ulps of one
    worst = float(np.abs(sums - D).max())
    if worst > 1e-5 * D:
        _fail(f"a reduced attention vector sums to {D} +- {worst:.3g}, not to D={D}")


def loss_decreased(val_losses: list, ratio: float) -> None:
    """The last epoch's validation loss is below ``ratio`` times the first's."""
    first, last = val_losses[0], val_losses[-1]
    if not last < ratio * first:
        _fail(f"validation loss went from {first:.5g} to {last:.5g}, "
              f"not below {ratio} of the first epoch")


def bitwise_equal(expected: list, actual: list, what: str) -> None:
    """Arrays agree bit for bit (same dtype, shape and bytes)."""
    if len(expected) != len(actual):
        _fail(f"{what}: {len(expected)} arrays against {len(actual)}")
    for i, (a, b) in enumerate(zip(expected, actual)):
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            _fail(f"{what}: array {i} differs")


def frozen_unchanged(before: dict, after: dict, expected: list) -> None:
    """The frozen parameters (name -> array) are exactly the ``expected``
    names, which are not none, and each kept its exact bytes."""
    if not expected or set(before) != set(expected):
        _fail(f"frozen parameters {sorted(before)}, expected {sorted(expected)}")
    if set(before) != set(after):
        _fail("the frozen parameter set changed")
    changed = [n for n in before if before[n].tobytes() != after[n].tobytes()]
    if changed:
        _fail(f"frozen parameters changed: {changed}")


def persistence_mse(windows: np.ndarray, input_len: int) -> float:
    """MSE of the last-value forecast over the observed horizon cells.

    windows: [n, T, F] reference windows, NaN where missing. Each feature's
    forecast is its last observed value in the history.
    """
    history, horizon = windows[:, :input_len], windows[:, input_len:]
    observed = ~np.isnan(history)
    last_idx = input_len - 1 - np.argmax(observed[:, ::-1], axis=1)       # [n, F]
    last = np.take_along_axis(history, last_idx[:, None, :], axis=1)     # [n, 1, F]
    err = (horizon - last)[~np.isnan(horizon)]
    return float(np.mean(err ** 2))


def beats_persistence(model_mse: float, baseline_mse: float) -> None:
    if not model_mse < baseline_mse:
        _fail(f"forecast MSE {model_mse:.5g} is not below persistence {baseline_mse:.5g}")


def masked_mae(outputs: np.ndarray, targets: np.ndarray, mask: np.ndarray) -> float:
    """Mean absolute error over the masked cells; NaN if one of them has no
    known target, which no ``values_match`` can pass."""
    return float(np.abs(outputs.astype(np.float64) - targets)[mask].mean())


def values_match(reported: float, computed: float, what: str, rtol: float = 1e-5) -> None:
    if not math.isclose(reported, computed, rel_tol=rtol, abs_tol=1e-9):
        _fail(f"{what}: program reports {reported!r}, recomputed {computed!r}")


def windows_match(reference: np.ndarray, program: np.ndarray) -> None:
    """The program's held-out windows equal the numpy reference: same count,
    same missing cells, same values to float32 precision."""
    if reference.shape != program.shape:
        _fail(f"held-out windows {program.shape}, reference {reference.shape}")
    if not np.array_equal(np.isnan(reference), np.isnan(program)):
        _fail("held-out windows disagree on which cells are missing")
    known = ~np.isnan(reference)
    if not np.allclose(program[known], reference[known], rtol=0, atol=1e-6):
        _fail("held-out window values differ from the reference normalisation")


def explain_csv(path, T: int, n_layers: int) -> None:
    """T+1 rows (header plus one per step) of finite, nonnegative weights
    whose weight_sum equals the sum of the per-layer columns."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = ["t", "input_value", "output_value", "weight_sum"] + \
        [f"weight_layer_{n + 1}" for n in range(n_layers)]
    if len(rows) != T + 1 or rows[0] != header:
        _fail(f"{path}: {len(rows)} rows with header {rows[0] if rows else None}")
    body = np.array(rows[1:], dtype=np.float64)
    if not np.array_equal(body[:, 0], np.arange(T)):
        _fail(f"{path}: time steps are not 0..{T - 1}")
    weights = body[:, 3:]
    if not np.isfinite(weights).all() or (weights < 0).any():
        _fail(f"{path}: negative or non-finite weights")
    # cells carry 8 significant digits
    if not np.allclose(weights[:, 0], weights[:, 1:].sum(axis=1), rtol=1e-7 * (n_layers + 1),
                       atol=1e-12):
        _fail(f"{path}: weight_sum disagrees with the per-layer columns")
