"""Command-line entry point.

Subcommands: pretrain, finetune, eval, explain, mask-stats. Model and
training hyperparameters come from a JSON config file; flags carry only
paths, the task selection, and the seed. stdout receives machine-readable
JSON results; diagnostics go to stderr (level via TSRM_LOG=error|info|debug).

Exit codes: 0 success, 1 runtime failure, 2 usage/config error,
3 numerical abort.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import os
import sys
from importlib import metadata
from pathlib import Path

import numpy as np

from .data import (
    DatasetSpec,
    NormStats,
    compute_stats,
    load_csv,
    normalize,
    split_series,
    window,
)
from .errors import (ConfigError, CorruptCheckpointError, CorruptConfigError, DataError,
                     NumericsError, TsrmError)
from .explain import export_attention
from .finetune import TaskSpec, evaluate_task, prepare_finetune, stored_task_spec
from .model import TASK_KINDS, ModelConfig, TsrmModel, load_checkpoint
from .pretraining import generate_mask, subset_length_bounds
from .trainer import FinetuneObjective, PretrainObjective, TrainConfig, train

logger = logging.getLogger("tsrm.cli")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

CONFIG_SECTIONS = {"model", "train", "data", "task"}


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(os.environ.get("TSRM_LOG", "info").lower(),
                                         logging.INFO)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=1) + "\n")


def load_run_config(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} does not hold a JSON object")
    if unknown := set(raw) - CONFIG_SECTIONS:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for name, section in raw.items():
        if not isinstance(section, dict):
            raise ConfigError(f"config section {name!r} is not a JSON object")
    return raw


def _load_split_windows(spec: DatasetSpec, train_csv, val_csv, window_T: int,
                        stats: NormStats | None = None):
    """Windows plus stats: explicit val file, or a chronological split.

    When stats is None it is derived from the training rows only.
    """
    values, names, labels = load_csv(train_csv, spec.feature_columns, spec.label_column)
    if val_csv is not None:
        stats = stats or compute_stats(values, names)
        train_values, train_labels = values, labels
        val_values, val_names, val_labels = load_csv(val_csv, spec.feature_columns
                                                     or names, spec.label_column)
        if val_names != names:
            raise DataError(f"validation columns {val_names} differ from training {names}")
    else:
        tr, va, _ = split_series(values.shape[0], spec.split_fractions)
        stats = stats or compute_stats(values[tr], names)
        train_values, val_values = values[tr], values[va]
        train_labels = labels[tr] if labels is not None else None
        val_labels = labels[va] if labels is not None else None
    train_norm, _ = normalize(train_values, stats)
    val_norm, _ = normalize(val_values, stats)
    train_ds = window(train_norm, window_T, spec.stride, labels=train_labels)
    val_ds = window(val_norm, window_T, spec.stride, labels=val_labels)
    return train_ds, val_ds, stats, names


def _load_eval_windows(spec: DatasetSpec, csv_path, window_T: int,
                       stats: NormStats | None):
    values, names, labels = load_csv(csv_path, spec.feature_columns, spec.label_column)
    if stats is None:
        logger.warning("no stored normalization stats; deriving min/max from %s", csv_path)
        stats = compute_stats(values, names)
    norm, clamped = normalize(values, stats)
    if clamped:
        logger.info("clamped %d out-of-range cells in %s", clamped, csv_path)
    return window(norm, window_T, spec.stride, labels=labels), names


# thread-count getters of the OpenBLAS builds numpy ships or links against
_OPENBLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                            "openblas_get_num_threads")


def _openblas_threads():
    """Thread count of the OpenBLAS numpy loaded into this process, asked of
    the library itself; None for another BLAS or off Linux."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    numpy_dir = os.path.dirname(np.__file__)
    # numpy's own copy first: scipy may load a second OpenBLAS of its own
    for path in sorted(paths, key=lambda p: not p.startswith(numpy_dir)):
        lib = ctypes.CDLL(path)
        for getter in _OPENBLAS_THREAD_GETTERS:
            if hasattr(lib, getter):
                return int(getattr(lib, getter)())
    return None


def _environment() -> dict:
    """Library versions and BLAS threading, recorded with every run. scipy's
    version is read from its installed metadata: tsrm never imports scipy."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": metadata.version("scipy"), "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": _openblas_threads()}


def _write_effective_config(out_dir: Path, payload: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {**payload, "environment": _environment()}
    (out_dir / "effective_config.json").write_text(json.dumps(payload, indent=1))
    logger.info("effective config: %s", json.dumps(payload))


def _stats_path(model_dir) -> Path:
    return Path(model_dir) / "norm_stats.json"


def _load_stats(model_dir) -> NormStats | None:
    path = _stats_path(model_dir)
    if not path.exists():
        return None
    try:
        stats = NormStats.from_dict(json.loads(path.read_text()))
    except (KeyError, TypeError, ValueError, OverflowError) as e:  # JSONDecodeError is a ValueError
        raise CorruptCheckpointError(f"{path} is malformed: {e!r}") from None
    mins, maxs = stats.mins, stats.maxs
    if mins.ndim != 1 or mins.shape != maxs.shape or not np.all(
            np.isfinite(mins) & np.isfinite(maxs) & (maxs > mins)):
        raise CorruptCheckpointError(f"{path} does not hold one finite min < max pair "
                                     f"per feature: mins {mins}, maxs {maxs}")
    return stats


def cmd_pretrain(args) -> int:
    raw = load_run_config(args.config)
    data_spec = DatasetSpec.from_dict(raw.get("data", {}))
    train_cfg = TrainConfig.from_dict(raw.get("train", {}))
    if args.seed is not None:
        train_cfg.seed = args.seed

    train_ds, val_ds, stats, names = _load_split_windows(
        data_spec, args.train_csv, args.val_csv, data_spec.window)
    model_cfg = ModelConfig.from_dict({**raw.get("model", {}),
                                       "T": data_spec.window, "F": len(names)})
    if model_cfg.num_classes != 1:
        # checked before --out is written; pretrain_loss would only catch it
        # in the first training step
        raise ConfigError(f"pretraining scores validity with one logit: model.num_classes "
                          f"must be 1, got {model_cfg.num_classes}")
    model = TsrmModel(model_cfg, seed=train_cfg.seed)
    objective = PretrainObjective(train_ds, val_ds,
                                  alpha=model_cfg.alpha, beta=model_cfg.beta,
                                  gamma=model_cfg.gamma,
                                  batch_size=train_cfg.batch_size,
                                  per_feature_masks=data_spec.mask_per_feature)

    out_dir = Path(args.out)
    effective = {"model": model_cfg.to_dict(), "train": train_cfg.to_dict(),
                 "data": data_spec.to_dict()}
    _write_effective_config(out_dir, effective)
    model, log = train(model, objective, train_cfg, out_dir=out_dir)
    _stats_path(out_dir).write_text(json.dumps(stats.to_dict()))
    _emit({"checkpoint": str(out_dir), **log.summary()})
    return EXIT_OK


def _task_from_args(args, raw: dict) -> TaskSpec:
    section = dict(raw.get("task", {}))
    for key, flag in (("kind", args.task), ("horizon", args.horizon),
                      ("num_classes", args.classes)):
        if flag is not None:
            section[key] = flag
    if "kind" not in section:
        raise ConfigError("no task given (flag --task or config [task].kind)")
    return TaskSpec.from_dict(section)


def cmd_finetune(args) -> int:
    raw = load_run_config(args.config)
    task = _task_from_args(args, raw)
    data_spec = DatasetSpec.from_dict(raw.get("data", {}))
    train_cfg = TrainConfig.from_dict(raw.get("train", {}))
    if args.seed is not None:
        train_cfg.seed = args.seed

    model = load_checkpoint(args.model)
    model = prepare_finetune(model, task, seed=train_cfg.seed)
    window_T = model.config.T
    stats = _load_stats(args.model)
    if stats is None:
        logger.warning("pretraining checkpoint carries no normalization stats; "
                       "deriving fresh ones")
    train_ds, val_ds, stats, names = _load_split_windows(
        data_spec, args.train_csv, args.val_csv, window_T, stats=stats)

    objective = FinetuneObjective(task, train_ds, val_ds,
                                  batch_size=train_cfg.batch_size,
                                  per_feature_masks=data_spec.mask_per_feature)
    out_dir = Path(args.out)
    effective = {"model": model.config.to_dict(), "train": train_cfg.to_dict(),
                 "data": data_spec.to_dict(), "task": task.to_dict()}
    _write_effective_config(out_dir, effective)
    model, log = train(model, objective, train_cfg, out_dir=out_dir)
    _stats_path(out_dir).write_text(json.dumps(stats.to_dict()))
    _emit({"checkpoint": str(out_dir), **log.summary()})
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_checkpoint(args.model)
    raw = load_run_config(args.config) if args.config else {}
    task = None if args.task else stored_task_spec(model)
    if task is None:
        task = _task_from_args(args, raw)
    data_spec = DatasetSpec.from_dict(raw.get("data", {}))
    stats = _load_stats(args.model)
    logger.info("effective config: %s", json.dumps(
        {"model": model.config.to_dict(), "data": data_spec.to_dict(),
         "task": task.to_dict(), "seed": args.seed or 0}))
    dataset, _ = _load_eval_windows(data_spec, args.test_csv, model.config.T, stats)
    metrics = evaluate_task(model, dataset, task, seed=args.seed or 0)
    if args.horizon_eval is not None:
        truncated = evaluate_task(model, dataset, task, seed=args.seed or 0,
                                  horizon_eval=args.horizon_eval)
        metrics = {f"horizon_{task.horizon}": metrics,
                   f"horizon_{args.horizon_eval}": truncated}
    _emit(metrics)
    return EXIT_OK


def cmd_explain(args) -> int:
    model = load_checkpoint(args.model)
    raw = load_run_config(args.config) if args.config else {}
    data_spec = DatasetSpec.from_dict(raw.get("data", {}))
    stats = _load_stats(args.model)
    logger.info("effective config: %s", json.dumps(
        {"model": model.config.to_dict(), "data": data_spec.to_dict(),
         "sample": args.sample, "backmap_mode": args.backmap_mode}))
    dataset, _ = _load_eval_windows(data_spec, args.input_csv, model.config.T, stats)
    if not 0 <= args.sample < len(dataset):
        raise ConfigError(f"sample index {args.sample} out of range "
                          f"(dataset holds {len(dataset)} windows)")
    paths = export_attention(model, dataset.values[args.sample], dataset.observed[args.sample],
                             args.out, svg=args.svg, mode=args.backmap_mode)
    _emit({"written": [str(p) for p in paths]})
    return EXIT_OK


def cmd_mask_stats(args) -> int:
    rng = np.random.default_rng(args.seed or 0)
    observed = np.ones((args.t, 1), dtype=bool)
    lo, hi = subset_length_bounds(args.t)
    fractions = []
    run_hist: dict[int, int] = {}
    for _ in range(args.n):
        mask = generate_mask(args.t, observed, rng)[:, 0]
        fractions.append(float(mask.mean()))
        edges = np.diff(mask.astype(np.int8), prepend=0, append=0)  # +1 opens a run, -1 ends it
        for run in (np.flatnonzero(edges < 0) - np.flatnonzero(edges > 0)).tolist():
            run_hist[run] = run_hist.get(run, 0) + 1
    _emit({
        "t": args.t, "draws": args.n, "seed": args.seed or 0,
        "fraction": {"min": min(fractions), "max": max(fractions),
                     "mean": float(np.mean(fractions))},
        "subset_length_bounds": [lo, hi],
        "run_length_histogram": {str(k): v for k, v in sorted(run_hist.items())},
    })
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tsrm",
                                     description="Time-series representation models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="self-supervised pretraining")
    p.add_argument("--config", required=True)
    p.add_argument("--train-csv", required=True)
    p.add_argument("--val-csv")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="adapt a pretrained model to a task")
    p.add_argument("--task", choices=TASK_KINDS)
    p.add_argument("--horizon", type=int)
    p.add_argument("--classes", type=int)
    p.add_argument("--model", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--train-csv", required=True)
    p.add_argument("--val-csv")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="metrics on a test CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--test-csv", required=True)
    p.add_argument("--task", choices=TASK_KINDS)
    p.add_argument("--horizon", type=int)
    p.add_argument("--classes", type=int)
    p.add_argument("--horizon-eval", type=int,
                   help="also score a truncated forecast horizon")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("explain", help="export back-mapped attention")
    p.add_argument("--model", required=True)
    p.add_argument("--input-csv", required=True)
    p.add_argument("--sample", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", action="store_true")
    p.add_argument("--backmap-mode", choices=["mean", "sum"], default="mean")
    p.add_argument("--config")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("mask-stats", help="masking protocol diagnostics")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_mask_stats)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (ConfigError, DataError) as e:
        logger.error("%s", e)
        return EXIT_RUNTIME if isinstance(e, CorruptConfigError) else EXIT_USAGE
    except NumericsError as e:
        logger.error("numerical abort: %s", e)
        return EXIT_NUMERIC
    except (TsrmError, OSError) as e:
        logger.error("%s", e)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
