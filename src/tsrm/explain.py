"""Back-transformation of attention vectors to input time steps and export.

A reduced attention vector lives over the D representation positions of an
encoding layer. To read it against the input, the pooled segments are
discarded (mirroring the merge stage) and each conv segment is pushed
through the branch's transposed convolution with static all-ones weights:
every representation position spreads its weight across its receptive
field, and each time step takes the mean over the windows covering it
("sum" mode instead divides each window's weight across its taps and adds
them up, which conserves the total weight exactly).
"""

from __future__ import annotations

import logging
from pathlib import Path

import numpy as np

from .autodiff import _scatter, no_grad
from .errors import ConfigError, DataError
from .finetune import stored_task_spec
from .model import TsrmModel, build_model_input

logger = logging.getLogger("tsrm.explain")

BACKMAP_MODES = ("mean", "sum")


def _static_transpose(signal: np.ndarray, k: int, dilation: int, stride: int,
                      target_len: int) -> np.ndarray:
    """Run the branch's transposed conv with an all-ones kernel along the
    last axis; leading axes hold independent signals."""
    one_channel = signal[..., None, :].astype(np.float64)
    return _scatter(one_channel, np.ones((1, k)), dilation, stride, target_len)[..., 0, :]


def backmap_branch(weights: np.ndarray, rb, T: int, mode: str = "mean") -> np.ndarray:
    """Distribute conv-segment weights (last axis) onto the T input steps."""
    if mode not in BACKMAP_MODES:
        raise ConfigError(f"unknown backmap mode {mode!r}, expected one of {BACKMAP_MODES}")
    spread = _static_transpose(weights, rb.k, rb.dilation, rb.stride, T)
    if mode == "sum":
        return spread / rb.k
    # the coverage depends only on the branch, so one pass serves every signal
    coverage = _static_transpose(np.ones(weights.shape[-1]), rb.k, rb.dilation, rb.stride, T)
    out = np.zeros(spread.shape, dtype=np.float64)
    covered = coverage > 0
    out[..., covered] = spread[..., covered] / coverage[covered]
    return out


def backmap(map_vector: np.ndarray, resolved_branches, T: int,
            mode: str = "mean") -> np.ndarray:
    """[..., D] attention vectors (layout [conv1, pool1, conv2, pool2, ...]) to
    a nonnegative weight per input time step, [..., T]; pooled segments are
    ignored."""
    map_vector = np.asarray(map_vector, dtype=np.float64)
    D = sum(rb.conv_len + rb.pool_len for rb in resolved_branches)
    if map_vector.ndim == 0 or map_vector.shape[-1] != D:
        raise ConfigError(f"map vector has shape {map_vector.shape}, layout implies (..., {D})")
    out = np.zeros(map_vector.shape[:-1] + (T,), dtype=np.float64)
    offset = 0
    for rb in resolved_branches:
        seg = map_vector[..., offset: offset + rb.conv_len]
        offset += rb.conv_len + rb.pool_len
        out += backmap_branch(seg, rb, T, mode=mode)
    return out


def backmapped_layers(model: TsrmModel, attention: np.ndarray, sample_index: int = 0,
                      mode: str = "mean") -> np.ndarray:
    """Back-map a forward trace's [N, B, F, D] attention to [N, F, T]."""
    cfg = model.config
    return backmap(attention[:, sample_index], cfg.resolved_branches, cfg.T, mode=mode)


def export_attention(model: TsrmModel, values: np.ndarray, observed: np.ndarray,
                     out_dir, svg: bool = False, mode: str = "mean") -> list:
    """Eval-forward one window and write per-feature attention CSVs.

    Columns: t, input_value, output_value, weight_sum, weight_layer_1..N.
    input_value is what the model saw (-1 at hidden positions). Forecast
    models hide their horizon automatically. Returns the written paths.
    """
    cfg = model.config
    if values.shape != (cfg.T, cfg.F):
        raise ConfigError(f"window shape {values.shape} does not match model ({cfg.T}, {cfg.F})")
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise DataError(f"cannot create output directory {out_dir}: {e}") from e

    hidden = np.zeros(values.shape, dtype=bool)
    task = stored_task_spec(model) if model.task == "forecast" else None
    if task is not None:
        hidden[task.input_len:] = True
    model_input = build_model_input(values, observed, hidden)

    with no_grad():
        trace = model.forward(model_input[None])
    layers = backmapped_layers(model, trace.attention, 0, mode=mode)  # [N, F, T]
    weight_sum = layers.sum(axis=0)                                   # [F, T]
    output = trace.output.data[0]
    # every column as float64 (exact for the float32 ones), [F, 3 + N, T]
    columns = np.concatenate([model_input.T[:, None], output.T[:, None],
                              weight_sum[:, None], layers.transpose(1, 0, 2)], axis=1)
    header = ",".join(["t", "input_value", "output_value", "weight_sum"]
                      + [f"weight_layer_{n + 1}" for n in range(cfg.n_layers)]) + "\r\n"
    # as csv.writer wrote it: "\r\n" line ends, no quoting, and "%.8g" of a Python
    # float is f"{v:.8g}" of the numpy scalar
    line = "%d," + ",".join(["%.8g"] * (3 + cfg.n_layers)) + "\r\n"

    written = []
    for f, block in enumerate(columns.tolist()):
        path = out_dir / f"attention_feature_{f}.csv"
        # Replace an earlier export rather than truncate it: ext4 (auto_da_alloc)
        # starts writing a truncated-and-rewritten file to disk when it is
        # closed, one disk write per file on every repeated export.
        path.unlink(missing_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(header + "".join(line % row for row in zip(range(cfg.T), *block)))
        written.append(path)
        if svg:
            svg_path = out_dir / f"attention_feature_{f}.svg"
            svg_path.unlink(missing_ok=True)
            svg_path.write_text(_render_svg(model_input[:, f], output[:, f], weight_sum[f]))
            written.append(svg_path)
    logger.info("wrote %d explainability files to %s", len(written), out_dir)
    return written


def _render_svg(inputs: np.ndarray, outputs: np.ndarray, weights: np.ndarray) -> str:
    """Minimal line plot: input/output series plus vertical attention bars."""
    T = len(inputs)
    width, height, pad = 900, 300, 30
    lo = float(min(inputs.min(), outputs.min(), 0.0))
    hi = float(max(inputs.max(), outputs.max(), 1.0))
    w_max = float(weights.max()) or 1.0

    def x(t):
        return pad + t * (width - 2 * pad) / max(T - 1, 1)

    def y(v):
        return height - pad - (v - lo) * (height - 2 * pad) / (hi - lo)

    heights = [w / w_max * (height - 2 * pad) for w in weights.tolist()]
    bars = "".join(f'<rect x="{x(t) - 1:.2f}" y="{height - pad - h:.2f}" width="2" '
                   f'height="{h:.2f}" fill="#d33" opacity="0.45"/>' for t, h in enumerate(heights))
    in_pts = " ".join(f"{x(t):.2f},{y(v):.2f}" for t, v in enumerate(inputs.tolist()))
    out_pts = " ".join(f"{x(t):.2f},{y(v):.2f}" for t, v in enumerate(outputs.tolist()))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<rect width="100%" height="100%" fill="white"/>'
        + bars
        + f'<polyline points="{in_pts}" fill="none" stroke="#2a2" stroke-width="1.5"/>'
        + f'<polyline points="{out_pts}" fill="none" stroke="#36c" stroke-width="1.5"/>'
        + "</svg>"
    )
