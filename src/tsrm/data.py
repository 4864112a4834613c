"""CSV ingestion, min-max normalization, windowing, chronological splits,
and synthetic series for tests and demos.

Values are normalized into [0, 1] from training-split statistics so the
reserved missing token -1 can never occur naturally. Missing entries are
carried as NaN internally and only become -1 when model inputs are built.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .config import Section
from .errors import ConfigError, DataError

logger = logging.getLogger("tsrm.data")

TIMESTAMP_NAMES = {"t", "time", "timestamp", "date", "datetime"}
MAX_MISSING_FRACTION = 0.8


@dataclass
class DatasetSpec(Section):
    """Which columns to read and how to slice them; the CSV files come from
    the command line."""

    _label = "data config"
    feature_columns: Optional[list[str]] = None
    window: int = 96
    stride: int = 96
    split_fractions: tuple[float, ...] = (0.6, 0.2, 0.2)
    mask_per_feature: bool = False
    label_column: Optional[str] = None

    def __post_init__(self):
        if self.window < 1 or self.stride < 1:
            raise ConfigError("window and stride must be positive")
        fr = tuple(self.split_fractions)
        if len(fr) != 3 or any(f < 0 for f in fr) or abs(sum(fr) - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must be three nonnegatives summing to 1, got {fr}")
        self.split_fractions = fr


@dataclass
class NormStats:
    """Per-feature training-split min/max."""

    mins: np.ndarray
    maxs: np.ndarray

    def to_dict(self) -> dict:
        return {"mins": self.mins.tolist(), "maxs": self.maxs.tolist()}

    @staticmethod
    def from_dict(d: dict) -> "NormStats":
        return NormStats(np.asarray(d["mins"], dtype=np.float64),
                         np.asarray(d["maxs"], dtype=np.float64))


class WindowedDataset:
    """Fixed-length windows: values [n, T, F] (NaN = missing) plus masks."""

    def __init__(self, values: np.ndarray, labels: Optional[np.ndarray] = None):
        self.values = np.asarray(values, dtype=np.float32)
        self.observed = ~np.isnan(self.values)
        self.labels = None if labels is None else np.asarray(labels, dtype=np.int64)

    def __len__(self) -> int:
        return self.values.shape[0]


def load_csv(path, feature_columns: Optional[list] = None,
             label_column: Optional[str] = None):
    """Read a UTF-8, comma-separated, headered CSV into float columns.

    Missing cells are empty strings or "nan" (case-insensitive). A leading
    timestamp-ish column (t/time/timestamp/date/datetime) is skipped when no
    explicit feature list is given. Returns (values [n, F], feature names,
    labels or None).
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path} is empty") from None
        header = [h.strip() for h in header]
        rows = list(reader)

    if feature_columns is None:
        names = list(header)
        if names and names[0].lower() in TIMESTAMP_NAMES:
            names = names[1:]
        if label_column is not None:
            names = [n for n in names if n != label_column]
    else:
        names = list(feature_columns)
    missing_cols = [n for n in names if n not in header]
    if label_column is not None and label_column not in header:
        missing_cols.append(label_column)
    if missing_cols:
        raise DataError(f"{path} lacks declared columns: {missing_cols}")
    if not names:
        raise DataError(f"{path}: no feature columns left to read")

    col_idx = [header.index(n) for n in names]
    values = np.full((len(rows), len(names)), np.nan, dtype=np.float64)
    for r, row in enumerate(rows):
        for c, j in enumerate(col_idx):
            cell = row[j].strip() if j < len(row) else ""
            if cell == "" or cell.lower() == "nan":
                continue
            try:
                values[r, c] = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: unparseable cell {cell!r} at row {r + 2}, column {names[c]!r}"
                ) from None
    # float() also reads "inf" and 1e999, which would collapse min-max scaling
    infinite = np.argwhere(np.isinf(values))
    if infinite.size:
        r, c = infinite[0]
        raise DataError(f"{path}: non-finite cell {rows[r][col_idx[c]].strip()!r} "
                        f"at row {r + 2}, column {names[c]!r}")

    labels = None
    if label_column is not None:
        j = header.index(label_column)
        labels = np.zeros(len(rows), dtype=np.int64)
        for r, row in enumerate(rows):
            cell = row[j].strip() if j < len(row) else ""
            try:
                label = float(cell)
                if not label.is_integer():
                    raise ValueError(cell)
                labels[r] = int(label)
            except (ValueError, OverflowError):
                raise DataError(
                    f"{path}: unparseable label {cell!r} at row {r + 2}"
                ) from None
    return values, names, labels


def split_series(n_rows: int, fractions=(0.6, 0.2, 0.2)) -> tuple:
    """Chronological, disjoint (train, val, test) row slices."""
    t_end = int(n_rows * fractions[0])
    v_end = int(n_rows * (fractions[0] + fractions[1]))
    return slice(0, t_end), slice(t_end, v_end), slice(v_end, n_rows)


def compute_stats(train_values: np.ndarray, feature_names: Optional[list] = None) -> NormStats:
    """Per-feature min/max over observed training values only."""
    if train_values.size == 0:
        raise DataError("training split is empty")
    with np.errstate(all="ignore"):
        mins = np.nanmin(train_values, axis=0)
        maxs = np.nanmax(train_values, axis=0)
    for f in range(train_values.shape[1]):
        name = feature_names[f] if feature_names else f"#{f}"
        if np.isnan(mins[f]):
            raise DataError(f"feature {name} has no observed training values")
        if maxs[f] <= mins[f]:
            raise DataError(f"feature {name} is constant over the training split")
    return NormStats(mins, maxs)


def normalize(values: np.ndarray, stats: NormStats):
    """Map into [0, 1] with training stats; out-of-range values are clamped.

    Missing entries (NaN) pass through untouched. Returns (normalized,
    clamp count). Raises DataError when the column count differs from the
    stats' feature count.
    """
    if values.shape[-1] != stats.mins.shape[-1]:
        raise DataError(f"data has {values.shape[-1]} columns but the normalization "
                        f"stats cover {stats.mins.shape[-1]} features")
    out = (values - stats.mins) / (stats.maxs - stats.mins)
    with np.errstate(invalid="ignore"):
        low = out < 0.0
        high = out > 1.0
    clamped = int(low.sum() + high.sum())
    out[low] = 0.0
    out[high] = 1.0
    if clamped:
        logger.info("clamped %d out-of-range values during normalization", clamped)
    return out, clamped


def window(series: np.ndarray, T: int, stride: int,
           labels: Optional[np.ndarray] = None) -> WindowedDataset:
    """Cut overlapping windows; windows with > MAX_MISSING_FRACTION missing
    are dropped (and counted in the log). Window labels, when present, come
    from the last row of each window."""
    n = series.shape[0]
    if n < T:
        raise DataError(f"series of length {n} is shorter than the window {T}")
    starts = np.arange(0, n - T + 1, stride)
    keep_values, keep_labels, dropped = [], [], 0
    for s in starts:
        win = series[s: s + T]
        missing_frac = np.isnan(win).mean()
        if missing_frac > MAX_MISSING_FRACTION:
            dropped += 1
            continue
        keep_values.append(win)
        if labels is not None:
            keep_labels.append(labels[s + T - 1])
    if dropped:
        logger.info("dropped %d windows with more than %.0f%% missing values",
                    dropped, 100 * MAX_MISSING_FRACTION)
    if not keep_values:
        raise DataError("no usable windows (empty dataset after filtering)")
    return WindowedDataset(np.stack(keep_values),
                           np.asarray(keep_labels) if labels is not None else None)


def synth_dataset(kind: str, T: int, F: int, n: int, seed: int = 0) -> WindowedDataset:
    """Synthetic windows: smooth sines in [0.1, 0.9] or uniform noise.

    Sine samples draw a period in [12, 32] and a phase per sample and
    feature: 0.5 + 0.4 sin(2 pi t / P + phi).
    """
    rng = np.random.default_rng(seed)
    t = np.arange(T, dtype=np.float64)
    if kind == "sine":
        period = rng.uniform(12.0, 32.0, size=(n, 1, F))
        phase = rng.uniform(0.0, 2.0 * math.pi, size=(n, 1, F))
        values = 0.5 + 0.4 * np.sin(2.0 * math.pi * t[None, :, None] / period + phase)
    elif kind == "noise":
        values = rng.uniform(0.0, 1.0, size=(n, T, F))
    else:
        raise ConfigError(f"unknown synthetic dataset kind {kind!r}")
    return WindowedDataset(values)
