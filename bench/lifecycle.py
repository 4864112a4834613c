"""Set-up of one workload through the program's public API.

``setup`` runs from ``import tsrm`` to the point where training starts:
CSV ingest, training-split statistics, normalisation, windowing, the
objective, and the model (built fresh, or saved, reloaded with
``load_checkpoint`` and adapted with ``prepare_finetune`` as
``tsrm finetune --model`` does). Nothing here imports tsrm at module level,
so the clock that ``setup`` starts covers the import.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer
from workloads import BATCH_SIZE, SPLIT, Workload

MODEL_SEED = 0     # model initialisation and training seed, as the CLI's default --seed


@dataclass
class Setup:
    model: object
    objective: object
    task: object
    train_ds: object
    val_ds: object
    test_ds: object
    seconds: float


def setup(w: Workload, csv_path: Path, work_dir: Path, tracer: Tracer) -> Setup:
    start = time.perf_counter()
    import tsrm
    from tsrm.data import compute_stats, split_series

    tracer.install()
    with tracer.span("data.load_csv"):
        values, names, _ = tsrm.load_csv(csv_path)
    with tracer.span("data.prepare"):
        rows = split_series(values.shape[0], SPLIT)
        stats = compute_stats(values[rows[0]], names)
        train_ds, val_ds, test_ds = (
            tsrm.window(tsrm.normalize(values[r], stats)[0], w.window, stride)
            for r, stride in zip(rows, (w.stride_train, w.stride_train, w.stride_test)))

    F = len(names)
    if w.forecast:
        # a freshly built model stands in for a pretrained checkpoint
        config = tsrm.ModelConfig(T=w.input_len, F=F, **w.model)
        with tracer.span("model.build"):
            model = tsrm.TsrmModel(config, seed=MODEL_SEED)
        with tracer.span("model.save_checkpoint"):
            tsrm.save_checkpoint(model, work_dir / "pretrained")
        with tracer.span("model.load_checkpoint"):
            model = tsrm.load_checkpoint(work_dir / "pretrained")
        task = tsrm.TaskSpec("forecast", horizon=w.horizon, input_len=w.input_len)
        with tracer.span("finetune.prepare"):
            model = tsrm.prepare_finetune(model, task, seed=MODEL_SEED)
        with tracer.span("trainer.objective"):
            objective = tsrm.FinetuneObjective(task, train_ds, val_ds, batch_size=BATCH_SIZE)
    else:
        config = tsrm.ModelConfig(T=w.window, F=F, **w.model)
        with tracer.span("model.build"):
            model = tsrm.TsrmModel(config, seed=MODEL_SEED)
        task = tsrm.TaskSpec("impute")
        with tracer.span("trainer.objective"):
            objective = tsrm.PretrainObjective(
                train_ds, val_ds, alpha=config.alpha, beta=config.beta, gamma=config.gamma,
                batch_size=BATCH_SIZE)
    tracer.wrap_objective(objective)
    return Setup(model, objective, task, train_ds, val_ds, test_ds,
                 time.perf_counter() - start)
