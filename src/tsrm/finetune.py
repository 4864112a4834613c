"""Task adapters: input reshaping, selective freezing, and refocused losses
for forecasting, imputation, and classification.

Forecasting and imputation freeze the attention-map classifier; only the
sequence path trains. Classification freezes the encoder stack (embedding,
encoding layers, de-embedding) and swaps the classifier's ensemble head for
a freshly initialized one sized to the class count; gradients still flow
through the frozen layers into the classifier parameters.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import Tensor, bce_with_logits, no_grad, softmax_cross_entropy
from .config import Section
from .data import WindowedDataset
from .errors import ConfigError, CorruptConfigError, DataError
from .model import MISSING_TOKEN, TASK_KINDS, ForwardTrace, TsrmModel, rebuild_for_window
from .pretraining import build_model_input, generate_mask, masked_mse_weights

logger = logging.getLogger("tsrm.finetune")

# windows per evaluation forward: the activations of one batch, not the
# dataset's size, set an evaluation's peak memory
EVAL_BATCH = 64

# classifier parameters sit under this prefix; the sequence path is the rest
_AC_PREFIX = "ac."
_SEQUENCE_PREFIXES = ("embed.", "el", "deembed.")


@dataclass
class TaskSpec(Section):
    """A fine-tuning task and its derived freezing rule."""

    _label = "task config"
    kind: str
    horizon: Optional[int] = None
    num_classes: Optional[int] = None
    input_len: int = 96

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ConfigError(f"unknown task {self.kind!r}, expected one of {TASK_KINDS}")
        if self.kind == "forecast":
            if self.horizon is None or self.horizon < 0:
                raise ConfigError("forecast task needs a nonnegative horizon")
        elif self.horizon is not None:
            raise ConfigError(f"horizon is only meaningful for forecasting, not {self.kind}")
        if self.kind == "classify":
            if self.num_classes is None or self.num_classes < 1:
                raise ConfigError("classification needs num_classes >= 1")
        elif self.num_classes is not None:
            raise ConfigError(f"num_classes is only meaningful for classification, not {self.kind}")
        if self.input_len < 1:
            raise ConfigError(f"input_len must be positive, got {self.input_len}")

    def frozen_predicate(self):
        if self.kind in ("forecast", "impute"):
            return lambda name: name.startswith(_AC_PREFIX)
        return lambda name: name.startswith(_SEQUENCE_PREFIXES)


def stored_task_spec(model: TsrmModel) -> Optional[TaskSpec]:
    """The task a loaded model was fine-tuned for, decoded from its manifest;
    None when it holds none. A task_spec that does not decode is a corrupt
    checkpoint."""
    if not model.task_spec:
        return None
    try:
        return TaskSpec.from_dict(model.task_spec)
    except ConfigError as e:
        raise CorruptConfigError(f"manifest task_spec: {e}") from e


def prepare_finetune(model: TsrmModel, task: TaskSpec, seed: int = 0) -> TsrmModel:
    """Adapt a pretrained model for a task: rebuild the window for
    forecasting, swap the classifier head for classification, and mark the
    task's frozen parameter set."""
    if task.kind == "forecast":
        new_T = task.input_len + task.horizon
        model, reinitialized = rebuild_for_window(model, new_T)
        if any(b.kernel_pct is not None for b in model.config.branches):
            logger.warning("percent kernels re-resolved for window %d%s", new_T,
                           f"; reinitialized: {reinitialized}" if reinitialized else "")
    elif task.kind == "classify":
        if task.num_classes != model.config.num_classes:
            model.config.num_classes = task.num_classes
        model.init_classifier_head(np.random.default_rng(seed))

    for p in model.params.values():
        p.frozen = False
    model.freeze(task.frozen_predicate())
    model.task = task.kind
    model.task_spec = task.to_dict()
    return model


def build_forecast_input(history: np.ndarray, horizon: int) -> np.ndarray:
    """Concatenate a (already -1 tokenized) history with horizon rows of -1."""
    history = np.asarray(history, dtype=np.float32)
    pad = np.full((horizon, history.shape[1]), MISSING_TOKEN, dtype=np.float32)
    return np.concatenate([history, pad], axis=0)


@dataclass
class FinetuneBatch:
    model_input: np.ndarray              # [B, T, F]
    values: np.ndarray                   # [B, T, F], NaN replaced by 0
    mask: Optional[np.ndarray] = None    # horizon/eval positions, bool
    labels: Optional[np.ndarray] = None  # [B] int, classification only


def build_forecast_batch(windows: np.ndarray, observed: np.ndarray,
                         task: TaskSpec) -> FinetuneBatch:
    """Windows of length input_len + horizon; the tail is the target."""
    B, T, F = windows.shape
    if T != task.input_len + task.horizon:
        raise ConfigError(f"forecast windows must have length {task.input_len + task.horizon}, got {T}")
    values = np.nan_to_num(windows, nan=0.0).astype(np.float32)
    horizon_mask = np.zeros((B, T, F), dtype=bool)
    horizon_mask[:, task.input_len:] = observed[:, task.input_len:]
    visible = observed.copy()
    visible[:, task.input_len:] = False
    model_input = np.where(visible, values, MISSING_TOKEN).astype(np.float32)
    return FinetuneBatch(model_input=model_input, values=values, mask=horizon_mask)


def build_impute_batch(windows: np.ndarray, observed: np.ndarray,
                       rng: np.random.Generator,
                       per_feature: bool = False) -> FinetuneBatch:
    """Artificially mask observed runs; those positions are the target."""
    B, T, F = windows.shape
    values = np.nan_to_num(windows, nan=0.0).astype(np.float32)
    eval_mask = np.zeros((B, T, F), dtype=bool)
    for b in range(B):
        eval_mask[b] = generate_mask(T, observed[b], rng, per_feature=per_feature)
    model_input = build_model_input(values, observed, eval_mask)
    return FinetuneBatch(model_input=model_input, values=values, mask=eval_mask)


def build_classify_batch(windows: np.ndarray, observed: np.ndarray,
                         labels: np.ndarray) -> FinetuneBatch:
    values = np.nan_to_num(windows, nan=0.0).astype(np.float32)
    model_input = np.where(observed, values, MISSING_TOKEN).astype(np.float32)
    return FinetuneBatch(model_input=model_input, values=values, labels=labels)


def finetune_loss(trace: ForwardTrace, batch: FinetuneBatch, task: TaskSpec) -> Tensor:
    """Task-focused loss; every other pretraining term is weighted zero."""
    if task.kind in ("forecast", "impute"):
        if batch.mask is None or not batch.mask.any():
            raise ConfigError(f"{task.kind} loss has no target positions")
        diff = trace.output - Tensor(batch.values)
        weights = masked_mse_weights(batch.mask,
                                     np.ones(batch.mask.shape[0], dtype=np.float32))
        return ((diff * diff) * Tensor(weights)).sum()
    if batch.labels is None:
        raise ConfigError("classification loss needs labels")
    if batch.labels.min() < 0 or batch.labels.max() >= max(task.num_classes, 2):
        raise ConfigError(f"labels outside [0, {task.num_classes}): "
                          f"[{batch.labels.min()}, {batch.labels.max()}]")
    if task.num_classes == 1:
        return bce_with_logits(trace.class_logits, batch.labels.reshape(-1, 1).astype(np.float32))
    return softmax_cross_entropy(trace.class_logits, batch.labels)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def macro_f1(y_true: np.ndarray, y_pred: np.ndarray, n_classes: int) -> float:
    """Unweighted mean of per-class F1 scores."""
    scores = []
    for c in range(n_classes):
        tp = int(((y_pred == c) & (y_true == c)).sum())
        fp = int(((y_pred == c) & (y_true != c)).sum())
        fn = int(((y_pred != c) & (y_true == c)).sum())
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        scores.append(2 * precision * recall / (precision + recall)
                      if precision + recall else 0.0)
    return float(np.mean(scores))


def _batched_forward(model: TsrmModel, inputs: np.ndarray):
    outputs, logits = [], []
    with no_grad():
        for s in range(0, inputs.shape[0], EVAL_BATCH):
            trace = model.forward(inputs[s: s + EVAL_BATCH])
            outputs.append(trace.output.data)
            logits.append(trace.class_logits.data)
    return np.concatenate(outputs), np.concatenate(logits)


def _require_targets(mask: np.ndarray, task: TaskSpec) -> None:
    """Metrics over no positions would be NaN, which is not valid JSON."""
    if not mask.any():
        raise DataError(f"{task.kind} evaluation has no observed target positions")


def evaluate_task(model: TsrmModel, dataset: WindowedDataset, task: TaskSpec,
                  seed: int = 0, horizon_eval: Optional[int] = None) -> dict:
    """Task metrics plus the trainable parameter count in millions.

    horizon_eval truncates forecast scoring to the first so-many horizon
    steps (a model tuned for a long span evaluated on a shorter one).
    """
    metrics = {"task": task.kind,
               "trainable_params_millions": model.parameter_count(trainable_only=True) / 1e6}
    if task.kind == "forecast":
        batch = build_forecast_batch(dataset.values, dataset.observed, task)
        mask = batch.mask
        if horizon_eval is not None:
            if not 0 < horizon_eval <= task.horizon:
                raise ConfigError(f"cannot evaluate horizon {horizon_eval} from a "
                                  f"{task.horizon}-step model")
            mask = mask.copy()
            mask[:, task.input_len + horizon_eval:] = False
            metrics["horizon_evaluated"] = horizon_eval
        _require_targets(mask, task)
        outputs, _ = _batched_forward(model, batch.model_input)
        err = (outputs - batch.values)[mask]
        metrics["mse"] = float((err ** 2).mean())
        metrics["mae"] = float(np.abs(err).mean())
    elif task.kind == "impute":
        batch = build_impute_batch(dataset.values, dataset.observed,
                                   np.random.default_rng(seed))
        _require_targets(batch.mask, task)
        outputs, _ = _batched_forward(model, batch.model_input)
        err = (outputs - batch.values)[batch.mask]
        metrics["mae"] = float(np.abs(err).mean())
        metrics["rmse"] = float(np.sqrt((err ** 2).mean()))
    else:
        if dataset.labels is None:
            raise ConfigError("classification evaluation needs labeled windows")
        batch = build_classify_batch(dataset.values, dataset.observed, dataset.labels)
        _, logits = _batched_forward(model, batch.model_input)
        if task.num_classes == 1:
            pred = (logits[:, 0] > 0).astype(np.int64)
        else:
            pred = logits.argmax(axis=1)
        metrics["accuracy"] = float((pred == dataset.labels).mean())
        metrics["macro_f1"] = macro_f1(dataset.labels, pred,
                                       max(task.num_classes, 2))
    return metrics
