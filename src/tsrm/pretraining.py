"""The three self-supervised pretraining tasks and their weighted loss.

Masking removes contiguous runs of 5-10% of the window, anchored on evenly
spaced slots with a random in-slot shift, until 30-50% of the observed
values are gone (the last run may overshoot; runs never touch, so every
maximal masked run keeps its drawn length). Every fifth sample, on
average, is replaced by an invalid candidate (noise for univariate input,
a rotated feature space otherwise) that the classifier must reject; its
reconstruction and imputation losses are switched off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, bce_with_logits
from .errors import ConfigError, DataError
from .model import MISSING_TOKEN, ForwardTrace, build_model_input

MASK_FRACTION_RANGE = (0.30, 0.50)
SUBSET_FRACTION_RANGE = (0.05, 0.10)
INVALID_RATE = 0.20


def subset_length_bounds(T: int) -> tuple:
    """Masked-run lengths are uniform integers in [ceil(.05 T), floor(.10 T)]."""
    lo = int(np.ceil(SUBSET_FRACTION_RANGE[0] * T))
    hi = int(np.floor(SUBSET_FRACTION_RANGE[1] * T))
    return lo, hi


def _mask_time_steps(T: int, weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Contiguous masked runs over T steps; weights[t] counts the observed
    values a masked step t would hide.

    The window is partitioned into as many equal slots as fit a maximal run
    plus one spare position; slots are visited in random order, each
    contributing one run of random length at a random in-slot shift, until
    the masked weight first reaches a target fraction drawn from
    [0.30, 0.50] of the total. The spare position guarantees runs in
    neighboring slots never merge.
    """
    lo, hi = subset_length_bounds(T)
    n_slots = T // (hi + 1)
    bounds = [(i * T) // n_slots for i in range(n_slots + 1)]
    total = float(weights.sum())
    mask = np.zeros(T, dtype=bool)
    if total == 0:
        return mask
    target = rng.uniform(*MASK_FRACTION_RANGE) * total
    masked = 0.0
    for slot in rng.permutation(n_slots):
        length = int(rng.integers(lo, hi + 1))
        start, end = bounds[slot], bounds[slot + 1]
        shift = int(rng.integers(0, end - start - length))  # last slot position stays free
        a = start + shift
        mask[a: a + length] = True
        masked += float(weights[a: a + length].sum())
        if masked >= target:
            break
    return mask


def generate_mask(T: int, observed_mask: np.ndarray,
                  rng: np.random.Generator, per_feature: bool = False) -> np.ndarray:
    """Evaluation mask [T, F] over a window's observation mask.

    By default a masked time step hides all F features at once (the masked
    fraction then counts observed values across the whole grid); with
    per_feature=True each feature column is masked independently.
    Only observed positions are ever marked.
    """
    if T < 20:
        raise ConfigError(f"window length {T} too short to mask 5%-10% runs (need T >= 20)")
    observed_mask = np.asarray(observed_mask, dtype=bool)
    if observed_mask.shape[0] != T:
        raise ConfigError(f"observation mask covers {observed_mask.shape[0]} steps, expected {T}")
    if observed_mask.ndim == 1:
        observed_mask = observed_mask[:, None]
    F = observed_mask.shape[1]

    if per_feature:
        eval_mask = np.zeros((T, F), dtype=bool)
        for f in range(F):
            steps = _mask_time_steps(T, observed_mask[:, f].astype(np.float64), rng)
            eval_mask[:, f] = steps & observed_mask[:, f]
        return eval_mask
    steps = _mask_time_steps(T, observed_mask.sum(axis=1).astype(np.float64), rng)
    return steps[:, None] & observed_mask


def make_invalid_candidate(values: np.ndarray, observed: np.ndarray,
                           rng: np.random.Generator) -> tuple:
    """Build an out-of-category sample: uniform noise when univariate, a
    cyclic rotation of the feature columns otherwise."""
    T, F = values.shape
    if F == 1:
        return rng.uniform(0.0, 1.0, size=(T, F)), np.ones((T, F), dtype=bool)
    offset = int(rng.integers(1, F))
    return np.roll(values, offset, axis=1), np.roll(observed, offset, axis=1)


@dataclass
class PretrainBatch:
    """Model inputs plus everything the loss needs."""

    model_input: np.ndarray   # [B, T, F], -1 at missing/eval positions
    values: np.ndarray        # [B, T, F], ground truth, NaN replaced by 0
    observed: np.ndarray      # [B, T, F] bool
    eval_mask: np.ndarray     # [B, T, F] bool, subset of observed
    validity: np.ndarray      # [B] float, 0 = invalid candidate


@dataclass
class LossBreakdown:
    l_repr: float
    l_imp: float
    l_class: float
    total: float

    def to_dict(self) -> dict:
        return {"l_repr": self.l_repr, "l_imp": self.l_imp,
                "l_class": self.l_class, "total": self.total}


def build_pretrain_batch(values: np.ndarray, observed: np.ndarray,
                         rng: np.random.Generator,
                         per_feature: bool = False) -> PretrainBatch:
    """Assemble a batch: invalid-candidate substitution (i.i.d. Bernoulli),
    fresh evaluation masks, and -1 tokenized inputs."""
    B, T, F = values.shape
    out_values = np.nan_to_num(values, nan=0.0).astype(np.float32)
    out_observed = observed.copy()
    validity = np.ones(B, dtype=np.float32)
    eval_mask = np.zeros((B, T, F), dtype=bool)
    for b in range(B):
        if rng.random() < INVALID_RATE:
            validity[b] = 0.0
            v, o = make_invalid_candidate(out_values[b], out_observed[b], rng)
            out_values[b] = v
            out_observed[b] = o
        eval_mask[b] = generate_mask(T, out_observed[b], rng, per_feature=per_feature)
    model_input = build_model_input(out_values, out_observed, eval_mask)
    return PretrainBatch(model_input=model_input, values=out_values,
                         observed=out_observed, eval_mask=eval_mask, validity=validity)


def masked_mse_weights(mask: np.ndarray, sample_weight: np.ndarray) -> np.ndarray:
    """Per-position weights that turn a sum of squared errors into the mean
    over per-sample masked MSEs (count-guarded, invalid samples excluded)."""
    B = mask.shape[0]
    counts = mask.reshape(B, -1).sum(axis=1).astype(np.float64)
    counts = np.maximum(counts, 1.0)
    w = mask.astype(np.float64) / counts[:, None, None]
    w *= sample_weight[:, None, None]
    return (w / B).astype(np.float32)


def pretrain_loss(trace: ForwardTrace, batch: PretrainBatch,
                  alpha: float, beta: float, gamma: float):
    """Composite loss: (l_repr + l_imp * alpha) * beta + l_class * gamma.

    The caller passes the weights; ``PretrainObjective`` defaults to ``ModelConfig``'s.

    l_repr is the MSE over observed-and-not-masked positions, l_imp over
    the masked (ground-truth-known) positions, l_class the binary
    cross-entropy of the validity logit. For invalid candidates the
    reconstruction and imputation terms are zeroed so the model cannot
    learn from out-of-category values. Returns (loss Tensor, LossBreakdown).

    Raises DataError for a batch that breaks the masking invariants: validity
    other than 0 or 1, an eval mask off the observed positions, or a model
    input that shows a value the mask or a missing observation hides.
    """
    if trace.output.shape != batch.values.shape:
        raise ConfigError(f"output {trace.output.shape} vs targets {batch.values.shape}")
    if trace.class_logits.shape[-1] != 1:
        raise ConfigError(f"pretraining scores validity with one logit, the model has "
                          f"{trace.class_logits.shape[-1]} (num_classes must be 1)")
    if ((batch.validity != 0) & (batch.validity != 1)).any():
        raise DataError(f"validity must be 0 or 1, got {np.unique(batch.validity)}")
    if (batch.eval_mask & ~batch.observed).any():
        raise DataError("eval mask covers unobserved positions")
    if (batch.model_input[batch.eval_mask | ~batch.observed] != MISSING_TOKEN).any():
        raise DataError(f"model input shows values at masked or unobserved positions, "
                        f"which must hold {MISSING_TOKEN:g}")
    repr_mask = batch.observed & ~batch.eval_mask
    diff = trace.output - Tensor(batch.values)
    se = diff * diff
    l_repr = (se * Tensor(masked_mse_weights(repr_mask, batch.validity))).sum()
    l_imp = (se * Tensor(masked_mse_weights(batch.eval_mask, batch.validity))).sum()
    l_class = bce_with_logits(trace.class_logits, batch.validity.reshape(-1, 1))
    total = (l_repr + l_imp * alpha) * beta + l_class * gamma
    breakdown = LossBreakdown(l_repr=l_repr.item(), l_imp=l_imp.item(),
                              l_class=l_class.item(), total=total.item())
    return total, breakdown
