"""Deterministic training loop: seeded minibatch Adam, early stopping on a
1% relative improvement rule, reduce-on-plateau learning rate scheduling,
best-checkpoint tracking, and JSON-lines run logging."""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .autodiff import Adam, clip_grad_norm, no_grad
from .config import Section
from .data import WindowedDataset
from .errors import ConfigError, NumericsError
from .finetune import (
    FinetuneBatch,
    TaskSpec,
    build_classify_batch,
    build_forecast_batch,
    build_impute_batch,
    finetune_loss,
)
from .model import ModelConfig, TsrmModel, save_checkpoint
from .pretraining import PretrainBatch, build_pretrain_batch, pretrain_loss

logger = logging.getLogger("tsrm.trainer")


@dataclass
class TrainConfig(Section):
    _label = "train config"
    _nested = {"early_stop_rel": ("early_stop", "rel_improvement"),
               "early_stop_patience": ("early_stop", "patience"),
               "scheduler_factor": ("scheduler", "factor"),
               "scheduler_patience": ("scheduler", "patience"),
               "min_lr": ("scheduler", "min_lr")}

    max_epochs: int = 100
    batch_size: int = 32
    initial_lr: float = 1e-3
    early_stop_rel: float = 0.01
    early_stop_patience: int = 5
    scheduler_factor: float = 0.5
    scheduler_patience: int = 2
    min_lr: float = 1e-6
    grad_clip_norm: Optional[float] = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.early_stop_patience < 1 or self.scheduler_patience < 1:
            raise ConfigError("patience values must be >= 1")
        if not 0.0 < self.scheduler_factor < 1.0:
            raise ConfigError("scheduler factor must lie in (0, 1)")
        if self.max_epochs < 1 or self.batch_size < 1:
            raise ConfigError("max_epochs and batch_size must be positive")
        if self.initial_lr <= 0 or self.min_lr < 0:
            raise ConfigError(f"initial_lr must be positive and min_lr nonnegative, "
                              f"got {self.initial_lr}, {self.min_lr}")
        if self.grad_clip_norm is not None and self.grad_clip_norm <= 0:
            raise ConfigError(f"grad_clip_norm must be positive or null, got {self.grad_clip_norm}")


class EarlyStopTracker:
    """Stop after `patience` consecutive epochs without a relative
    improvement of at least `rel` over the best validation loss."""

    def __init__(self, rel: float, patience: int):
        self.rel = rel
        self.patience = patience
        self.best = math.inf
        self.stale = 0

    def update(self, value: float) -> bool:
        # a zero best loss leaves no relative improvement possible
        if self.best is math.inf or (self.best != 0
                                     and (self.best - value) / self.best >= self.rel):
            self.best = value
            self.stale = 0
        else:
            self.stale += 1
        return self.stale >= self.patience


class PlateauScheduler:
    """Halve (by `factor`) the learning rate after `patience` consecutive
    epochs without any strict improvement, never below min_lr."""

    def __init__(self, lr: float, factor: float, patience: int, min_lr: float):
        self.lr = lr
        self.factor = factor
        self.patience = patience
        self.min_lr = min_lr
        self.best = math.inf
        self.stale = 0

    def step(self, value: float) -> float:
        if value < self.best:
            self.best = value
            self.stale = 0
        else:
            self.stale += 1
            if self.stale >= self.patience:
                self.lr = max(self.lr * self.factor, self.min_lr)
                self.stale = 0
        return self.lr


@dataclass
class RunLog:
    epochs: list = field(default_factory=list)
    best_epoch: int = -1
    best_val: float = math.inf
    total_steps: int = 0
    parameter_count: int = 0
    trainable_parameter_count: int = 0

    def summary(self) -> dict:
        return {"best_epoch": self.best_epoch, "best_val": self.best_val,
                "total_steps": self.total_steps,
                "parameter_count": self.parameter_count,
                "trainable_parameter_count": self.trainable_parameter_count}

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.epochs:
                fh.write(json.dumps(record) + "\n")
            fh.write(json.dumps({"summary": self.summary()}) + "\n")


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------

# validation batches draw their masks and substitutions from this seed once,
# so the early stopping signal is comparable across epochs
VAL_SEED = 1234


class _WindowObjective:
    """Batches of windows for one objective: a fresh shuffle and fresh
    batches every epoch for training, one fixed set for validation.
    Subclasses give ``_build(values, observed, labels, rng)`` and ``loss``."""

    def __init__(self, train_ds: WindowedDataset, val_ds: WindowedDataset,
                 batch_size: int, per_feature_masks: bool):
        self.train_ds = train_ds
        self.batch_size = batch_size
        self.per_feature = per_feature_masks
        rng = np.random.default_rng(VAL_SEED)
        self._val = [self._build_rows(val_ds, slice(s, s + batch_size), rng)
                     for s in range(0, len(val_ds), batch_size)]

    def _build_rows(self, ds: WindowedDataset, idx, rng):
        labels = None if ds.labels is None else ds.labels[idx]
        return self._build(ds.values[idx], ds.observed[idx], labels, rng)

    def train_batches(self, rng: np.random.Generator) -> list:
        order = rng.permutation(len(self.train_ds))
        return [self._build_rows(self.train_ds, order[s: s + self.batch_size], rng)
                for s in range(0, len(order), self.batch_size)]

    def val_batches(self) -> list:
        return self._val


class PretrainObjective(_WindowObjective):
    """Reconstruction + imputation + validity classification on windows;
    training batches re-draw masks and invalid-candidate substitutions."""

    def __init__(self, train_ds: WindowedDataset, val_ds: WindowedDataset,
                 alpha: float = ModelConfig.alpha, beta: float = ModelConfig.beta,
                 gamma: float = ModelConfig.gamma,
                 batch_size: int = 32, per_feature_masks: bool = False):
        self.alpha, self.beta, self.gamma = alpha, beta, gamma
        super().__init__(train_ds, val_ds, batch_size, per_feature_masks)

    def _build(self, values, observed, labels, rng) -> PretrainBatch:
        return build_pretrain_batch(values, observed, rng, per_feature=self.per_feature)

    def loss(self, trace, batch):
        total, bd = pretrain_loss(trace, batch, self.alpha, self.beta, self.gamma)
        return total, bd.to_dict()


class FinetuneObjective(_WindowObjective):
    """Task loss over windowed data; imputation re-masks per epoch."""

    def __init__(self, task: TaskSpec, train_ds: WindowedDataset,
                 val_ds: WindowedDataset, batch_size: int = 32,
                 per_feature_masks: bool = False):
        self.task = task
        super().__init__(train_ds, val_ds, batch_size, per_feature_masks)

    def _build(self, values, observed, labels, rng) -> FinetuneBatch:
        if self.task.kind == "forecast":
            return build_forecast_batch(values, observed, self.task)
        if self.task.kind == "impute":
            return build_impute_batch(values, observed, rng, self.per_feature)
        return build_classify_batch(values, observed, labels)

    def loss(self, trace, batch):
        total = finetune_loss(trace, batch, self.task)
        return total, {"total": total.item()}


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

def _merge_breakdowns(parts: list) -> dict:
    """Size-weighted mean of per-batch loss breakdown dicts."""
    total_n = sum(n for _, n in parts)
    keys = parts[0][0].keys()
    return {k: sum(d[k] * n for d, n in parts) / total_n for k in keys}


def train(model: TsrmModel, objective, cfg: TrainConfig,
          out_dir=None) -> tuple:
    """Run the full loop; returns (model restored to its best epoch, RunLog).

    The model, batches, masks, dropout, and shuffling all draw from one
    generator seeded by cfg.seed, so identical configurations replay
    identically. A non-finite loss aborts with epoch/batch diagnostics.
    The objective builds the batches, so its batch size must be cfg's.
    """
    if objective.batch_size != cfg.batch_size:
        raise ConfigError(f"the objective batches {objective.batch_size} windows, "
                          f"the training config asks for {cfg.batch_size}")
    rng = np.random.default_rng(cfg.seed)
    opt = Adam(model.parameters(), lr=cfg.initial_lr)
    stopper = EarlyStopTracker(cfg.early_stop_rel, cfg.early_stop_patience)
    scheduler = PlateauScheduler(cfg.initial_lr, cfg.scheduler_factor,
                                 cfg.scheduler_patience, cfg.min_lr)
    log = RunLog(parameter_count=model.parameter_count(),
                 trainable_parameter_count=model.parameter_count(trainable_only=True))
    best_state = None
    out_dir = Path(out_dir) if out_dir is not None else None

    for epoch in range(cfg.max_epochs):
        epoch_start = time.perf_counter()
        train_parts = []
        for b_idx, batch in enumerate(objective.train_batches(rng)):
            trace = model.forward(batch.model_input, training=True, rng=rng)
            loss, bd = objective.loss(trace, batch)
            if not np.isfinite(loss.item()):
                raise NumericsError(
                    f"non-finite loss at epoch {epoch}, batch {b_idx}: {bd}",
                    epoch=epoch, batch=b_idx, breakdown=bd)
            opt.zero_grad()
            loss.backward()
            if cfg.grad_clip_norm is not None:
                norm = clip_grad_norm(model.parameters(), cfg.grad_clip_norm)
                if norm > cfg.grad_clip_norm:
                    logger.info("epoch %d batch %d: clipped gradient norm %.3f",
                                epoch, b_idx, norm)
            opt.step()
            log.total_steps += 1
            train_parts.append((bd, batch.model_input.shape[0]))

        val_parts = []
        with no_grad():
            for batch in objective.val_batches():
                trace = model.forward(batch.model_input, training=False)
                _, bd = objective.loss(trace, batch)
                val_parts.append((bd, batch.model_input.shape[0]))
        val_bd = _merge_breakdowns(val_parts)
        val_total = val_bd["total"]
        if not np.isfinite(val_total):
            raise NumericsError(f"non-finite validation loss at epoch {epoch}",
                                epoch=epoch, breakdown=val_bd)

        opt.lr = scheduler.step(val_total)
        improved = val_total < log.best_val
        if improved:
            log.best_val = val_total
            log.best_epoch = epoch
            best_state = {name: p.data.copy() for name, p in model.params.items()}

        record = {
            "epoch": epoch,
            "train": _merge_breakdowns(train_parts),
            "val": val_bd,
            "lr": opt.lr,
            "seconds": round(time.perf_counter() - epoch_start, 4),
        }
        log.epochs.append(record)
        logger.info("epoch %d: train %.5f val %.5f lr %.2e", epoch,
                    record["train"]["total"], val_total, opt.lr)

        if stopper.update(val_total):
            logger.info("early stop after epoch %d", epoch)
            break

    if best_state is not None:
        # restored into fresh arrays: keeping the snapshot's own blocks raised
        # the heap's peak in the evaluation after training by 0.6-2.3 MB
        for name, p in model.params.items():
            p.tensor.data = best_state[name].copy()
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(model, out_dir)
        log.write_jsonl(out_dir / "runlog.jsonl")
    return model, log
