"""Workload definitions and their seeded inputs.

Each workload fixes a model shape, an attention kind, a task and the
make-up of a generated CSV series. The series depends only on the seed
given on the command line; the program under test receives nothing but the
CSV. This module imports numpy only, so the set-up clock (which starts at
``import tsrm``) never includes input generation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# fraction of cells left empty in every generated CSV, so the -1 token path runs
MISSING_SHARE = 0.03
# draws each workload's fixed series shape, missing cells and training noise
LAYOUT_SEED = 20240528
# chronological train / validation / test split of the rows, as the CLI uses
SPLIT = (0.6, 0.2, 0.2)
# Gaussian noise std, against a signal of amplitude about one
NOISE = 0.15
BATCH_SIZE = 8
# export_attention calls per inference round
N_EXPLAIN = 100


@dataclass(frozen=True)
class Workload:
    name: str
    model: dict                # ModelConfig fields other than T and F
    window: int                # rows per model window (input_len + horizon when forecasting)
    rows: int                  # series length
    periods: tuple             # sine periods in rows, one per feature
    stride_train: int          # window stride of the training and validation splits
    stride_test: int           # window stride of the held-out test split
    epochs: int
    horizon: int = 0           # > 0 makes this a forecast fine-tuning workload

    @property
    def features(self) -> int:
        return len(self.periods)

    @property
    def forecast(self) -> bool:
        return self.horizon > 0

    @property
    def input_len(self) -> int:
        return self.window - self.horizon


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="pretrain-uni",
            model=dict(f_embed=32, n_layers=2, heads=2, attention="vanilla",
                       branches=[{"kernel": 5, "dilation": 1}]),
            window=96, rows=5000, periods=(24.0,),
            stride_train=8, stride_test=8, epochs=10,
        ),
        Workload(
            name="pretrain-mv",
            model=dict(f_embed=16, n_layers=2, heads=2, attention="probsparse",
                       branches=[{"kernel": 5, "dilation": 1},
                                 {"kernel_pct": 10, "dilation": 2}]),
            window=192, rows=3000,
            periods=(24.0, 48.0, 36.0, 24.0, 96.0, 12.0, 60.0),
            stride_train=24, stride_test=4, epochs=4,
        ),
        Workload(
            name="forecast-uni",
            model=dict(f_embed=32, n_layers=2, heads=2, attention="entmax15",
                       branches=[{"kernel": 5, "dilation": 1}]),
            window=120, rows=5000, periods=(24.0,),
            stride_train=8, stride_test=8, epochs=4, horizon=24,
        ),
    )
}


def generate_series(w: Workload, seed: int) -> np.ndarray:
    """[rows, F] float64 series with NaN at the missing cells.

    Feature f is a sine of period periods[f] plus its half-period harmonic,
    with a phase, amplitude and level of its own, plus Gaussian noise. The
    shape, the missing cells and the noise of the training and validation
    rows are fixed per workload; ``seed`` draws the noise of the held-out
    test rows. Training is then the same on every seed and replays bit for
    bit, so ``val_loss`` moves only when the program's arithmetic does: when
    the seed also drew the training rows, a short run's validation loss
    swung by up to 2x between seeds. Evaluation and explanation see new
    inputs on every seed.
    """
    layout = np.random.default_rng(LAYOUT_SEED)
    F = w.features
    period = np.array(w.periods)[None, :]
    phase = layout.uniform(0.0, 2.0 * math.pi, size=(1, F))
    amp = layout.uniform(0.8, 1.2, size=(1, F))
    level = layout.uniform(-1.0, 1.0, size=(1, F))
    missing = layout.random((w.rows, F)) < MISSING_SHARE
    noise = layout.standard_normal((w.rows, F))
    test = split_rows(w.rows)[2]
    noise[test] = np.random.default_rng(seed).standard_normal(noise[test].shape)
    t = np.arange(w.rows, dtype=np.float64)[:, None]
    signal = amp * (np.sin(2.0 * math.pi * t / period + phase)
                    + 0.4 * np.sin(4.0 * math.pi * t / period + 2.0 * phase))
    series = level + signal + NOISE * noise
    series[missing] = np.nan
    return series


def write_csv(series: np.ndarray, path) -> None:
    """Headered CSV: a leading ``t`` column, then v0..v{F-1}; empty cells are missing."""
    rows, F = series.shape
    lines = ["t," + ",".join(f"v{f}" for f in range(F))]
    for r in range(rows):
        cells = ["" if math.isnan(x) else f"{x:.6f}" for x in series[r]]
        lines.append(f"{r}," + ",".join(cells))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def split_rows(rows: int) -> tuple:
    """(train, val, test) row slices, chronological and disjoint."""
    t_end = int(rows * SPLIT[0])
    v_end = int(rows * (SPLIT[0] + SPLIT[1]))
    return slice(0, t_end), slice(t_end, v_end), slice(v_end, rows)


def reference_test_windows(w: Workload, series: np.ndarray) -> np.ndarray:
    """The held-out windows [n, T, F] computed here in numpy, apart from the
    program: min-max scaled by the training split, clamped to [0, 1], NaN
    where missing. The CSV's six decimals are applied first so that both
    sides start from the same numbers."""
    series = np.round(series, 6)
    tr, _, te = split_rows(w.rows)
    lo = np.nanmin(series[tr], axis=0)
    hi = np.nanmax(series[tr], axis=0)
    scaled = np.clip((series[te] - lo) / (hi - lo), 0.0, 1.0)
    starts = range(0, scaled.shape[0] - w.window + 1, w.stride_test)
    return np.stack([scaled[s: s + w.window] for s in starts])
