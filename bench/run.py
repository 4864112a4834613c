"""Run one benchmark workload in this fresh process and print its result.

    python3 bench/run.py --workload pretrain-uni --seed 1 --seconds 10 --trace 0

The run generates the workload's CSV from the seed, sets the program up
(``setup_s``), trains for the workload's fixed number of epochs, checks the
outputs, then repeats whole inference rounds (one ``evaluate_task`` over
the held-out windows, then ``export_attention`` on 100 of them,
one at a time) until the rounds have taken ``--seconds``. With ``--trace 0``
the last line of stdout is a JSON object holding every end-to-end metric of
BENCHMARK.json; with ``--trace 1`` the public calls are wrapped in spans,
a table of them is printed, and the JSON holds every per-layer metric.
Files go to ``.bench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import os

# one BLAS thread: the load comes from this single process, and a second
# thread bought nothing on a two-core machine (see README.md)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from lifecycle import MODEL_SEED, setup  # noqa: E402
from spans import END, START, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    BATCH_SIZE, N_EXPLAIN, WORKLOADS, generate_series, reference_test_windows, write_csv)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# the last epoch's validation loss must be below this share of the first's
LOSS_DROP = 0.9
# extra fresh processes that repeat the set-up, for a median of three
SETUP_REPEATS = 2
# Adam's initial learning rate on every workload; at the default 1e-3 the
# 7-feature model's outputs were still far off when its run ended (test MAE
# 1.6 in normalised units, against 0.28)
LEARNING_RATE = 3e-3
# parameter names of the attention classifier, which forecasting freezes
CLASSIFIER_PREFIX = "ac."


class Ops:
    """Operations attempted and failed; a check is one operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def done(self, n: int = 1) -> None:
        self.attempted += n

    def check(self, fn, *args) -> None:
        self.attempted += 1
        try:
            fn(*args)
        except checks.CheckFailure as e:
            self.failed += 1
            print(f"CHECK FAILED: {fn.__name__}: {e}", file=sys.stderr)


def forward_all(model, inputs: np.ndarray) -> tuple:
    """Eval-forward in training-sized batches: (outputs, logits, attention).

    Every parameter still requires a gradient, so each forward records its
    autodiff graph; batches of BATCH_SIZE keep that graph below a training
    step's, so these checks never set the run's peak_rss_mb.
    """
    outs, logits, maps = [], [], []
    for s in range(0, len(inputs), BATCH_SIZE):
        trace = model.forward(inputs[s: s + BATCH_SIZE])
        outs.append(trace.output.data)
        logits.append(trace.class_logits.data)
        maps.append(trace.attention)
    return np.concatenate(outs), np.concatenate(logits), np.concatenate(maps, axis=1)


def eval_inputs(w, test_ds, reference: np.ndarray):
    """Model inputs and scored cells of the held-out evaluation.

    Forecasting: built here from the reference windows, history visible
    where observed and the horizon hidden. Imputation: the evaluator's own
    seeded masks (``evaluate_task`` draws them with seed 0), which must fall
    on observed cells only.
    """
    from tsrm.finetune import build_impute_batch

    if w.forecast:
        visible = ~np.isnan(reference)
        visible[:, w.input_len:] = False
        inputs = np.where(visible, np.nan_to_num(reference), -1.0).astype(np.float32)
        scored = ~np.isnan(reference)
        scored[:, : w.input_len] = False
        return inputs, scored
    batch = build_impute_batch(test_ds.values, test_ds.observed, np.random.default_rng(0))
    return batch.model_input, batch.mask


def run(w, seed: int, seconds: float, tracer: Tracer, work: Path) -> tuple:
    ops = Ops()
    series = generate_series(w, seed)
    csv_path = work / "series.csv"
    write_csv(series, csv_path)
    reference = reference_test_windows(w, series)

    s = setup(w, csv_path, work, tracer)
    import tsrm

    if w.forecast:
        ops.done(2)                                   # the set-up's checkpoint save and load
    model = s.model
    frozen_before = {p.name: p.data.copy() for p in model.params.values() if p.frozen}
    # patience as long as the run: early stopping cannot end it
    train_cfg = tsrm.TrainConfig(max_epochs=w.epochs, batch_size=BATCH_SIZE,
                                 initial_lr=LEARNING_RATE, seed=MODEL_SEED,
                                 early_stop_patience=w.epochs)
    start = time.perf_counter()
    with tracer.span("trainer.train"):
        model, log = tsrm.train(model, s.objective, train_cfg, out_dir=work / "run")
    train_s = time.perf_counter() - start
    ops.done(log.total_steps + 1)                     # steps and the checkpoint save
    if not w.forecast:
        with tracer.span("finetune.prepare"):
            model = tsrm.prepare_finetune(model, s.task, seed=MODEL_SEED)
    with tracer.span("model.load_checkpoint"):
        reloaded = tsrm.load_checkpoint(work / "run")
    ops.done()

    inputs, scored = eval_inputs(w, s.test_ds, reference)
    with tracer.paused():
        ops.check(checks.loss_decreased, [e["val"]["total"] for e in log.epochs], LOSS_DROP)
        ops.check(checks.windows_match, reference, s.test_ds.values)
        outputs, logits, attention = forward_all(model, inputs)
        again = forward_all(reloaded, inputs)
        ops.check(checks.bitwise_equal, [outputs, logits, attention], list(again),
                  "save -> load_checkpoint eval outputs")
        ops.check(checks.attention_row_stochastic, attention)
        if w.forecast:
            ops.check(checks.frozen_unchanged, frozen_before,
                      {n: model.params[n].data for n in frozen_before},
                      [n for n in model.params if n.startswith(CLASSIFIER_PREFIX)])
            baseline = checks.persistence_mse(reference, w.input_len)
        mae = checks.masked_mae(outputs, reference, scored)
    del reloaded, again
    # one untimed evaluation first: its graph faults in the pages later calls
    # reuse, and on pretrain-mv, where a run fits one or two rounds, timing the
    # cold call made the rate depend on the round count (23 against 30 windows/s)
    with tracer.paused():
        ops.check(checks.values_match, tsrm.evaluate_task(model, s.test_ds, s.task)["mae"],
                  mae, "test MAE")

    eval_rates, explain_ms, metrics, rounds = [], [], None, 0
    explain_dir = work / "explain"
    inference_start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - inference_start < seconds:
        start = time.perf_counter()
        with tracer.span("finetune.evaluate"):
            metrics = tsrm.evaluate_task(model, s.test_ds, s.task)
        eval_rates.append(len(s.test_ds) / (time.perf_counter() - start))
        ops.done()
        for i in range(N_EXPLAIN):
            start = time.perf_counter()
            with tracer.span("explain.export"):
                tsrm.export_attention(model, s.test_ds.values[i], s.test_ds.observed[i],
                                      explain_dir / str(i))
            explain_ms.append(1e3 * (time.perf_counter() - start))
        ops.done(N_EXPLAIN)
        with tracer.paused():
            ops.check(checks.values_match, metrics["mae"], mae, "test MAE")
            if w.forecast:
                ops.check(checks.beats_persistence, metrics["mse"], baseline)
            for i in range(N_EXPLAIN):
                for f in range(w.features):
                    ops.check(checks.explain_csv,
                              explain_dir / str(i) / f"attention_feature_{f}.csv",
                              model.config.T, model.config.n_layers)
        rounds += 1

    print(f"{w.name}: setup {s.seconds:.3f} s, train {train_s:.2f} s "
          f"({log.total_steps} steps), {rounds} inference rounds", file=sys.stderr)
    if tracer.enabled:
        return per_layer(tracer, len(s.train_ds) * w.epochs / train_s,
                         csv_rows=series.shape[0]), ops
    setups = [s.seconds] + repeat_setup(w, csv_path, work)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "train_windows_per_s": (len(s.train_ds) * w.epochs / train_s, "windows/s"),
        "val_loss": (log.best_val, "loss"),
        "infer_windows_per_s": (statistics.median(eval_rates), "windows/s"),
        "test_mae": (metrics["mae"], "normalised"),
        "explain_ms_p50": (statistics.median(explain_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, ops


def repeat_setup(w, csv_path: Path, work: Path) -> list:
    """Set-up seconds from fresh processes started one after the other."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for i in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_once.py"), w.name, str(csv_path),
             str(work / f"setup{i}")],
            env=env, capture_output=True, text=True, timeout=150, check=True)
        out.append(float(done.stdout.split()[-1]))
    return out


def per_layer(tracer: Tracer, traced_rate: float, csv_rows: int) -> dict:
    def durations(*names):
        return [1e3 * (sp[END] - sp[START]) for n in names for sp in tracer.named(n)]

    def mean_ms(*names):
        d = durations(*names)
        return sum(d) / len(d)

    table = tracer.table()
    # forward start to Adam end, less the graph walk the tracer adds before backward
    steps = [1e3 * (a[END] - f[START] - (g[END] - g[START])) for f, g, a in
             zip(tracer.named("model.forward_train"), tracer.named("trace.graph_walk"),
                 tracer.named("autodiff.adam"))]
    n_steps = len(steps)
    nodes = [g[0] for g in tracer.graphs]
    graph_bytes = [g[1] for g in tracer.graphs]
    load_ms = mean_ms("data.load_csv")
    n_exports = len(tracer.named("explain.export"))
    out = {
        "data.load_csv_ms": (load_ms, "ms"),
        "data.csv_rows_per_s": (csv_rows / (load_ms / 1e3), "rows/s"),
        "data.prepare_ms": (mean_ms("data.prepare"), "ms"),
        "model.build_ms": (mean_ms("model.build"), "ms"),
        "model.load_checkpoint_ms": (mean_ms("model.load_checkpoint"), "ms"),
        "finetune.prepare_ms": (mean_ms("finetune.prepare"), "ms"),
        "trainer.batch_ms": (sum(durations("trainer.batches")) / n_steps, "ms"),
        "trainer.loss_ms": (mean_ms("pretraining.pretrain_loss", "finetune.finetune_loss"), "ms"),
        "model.forward_train_ms": (mean_ms("model.forward_train"), "ms"),
        "model.forward_eval_ms": (mean_ms("model.forward_eval"), "ms"),
        "model.embed_ms": (mean_ms("model.embed"), "ms"),
        "model.representation_ms": (mean_ms("model.representation"), "ms"),
        "model.encoding_layer_ms": (mean_ms("model.encoding_layer"), "ms"),
        "model.merge_ms": (mean_ms("model.merge"), "ms"),
        "model.classifier_ms": (mean_ms("model.classifier"), "ms"),
        "model.de_embed_ms": (mean_ms("model.de_embed"), "ms"),
        "attention.mha_ms": (mean_ms("attention.mha"), "ms"),
        "attention.kernel_ms": (mean_ms("attention.kernel"), "ms"),
        "autodiff.backward_ms": (mean_ms("autodiff.backward"), "ms"),
        "autodiff.nodes_per_step": (statistics.median(nodes), "nodes"),
        "autodiff.graph_mb": (statistics.median(graph_bytes) / 2 ** 20, "MB"),
        "autodiff.clip_ms": (mean_ms("autodiff.clip"), "ms"),
        "autodiff.adam_ms": (mean_ms("autodiff.adam"), "ms"),
        "trainer.step_ms_p50": (statistics.median(steps), "ms"),
        "trainer.step_ms_p90": (statistics.quantiles(steps, n=10)[-1], "ms"),
        "trainer.val_ms": (mean_ms("trainer.val"), "ms"),
        "model.save_checkpoint_ms": (mean_ms("model.save_checkpoint"), "ms"),
        "finetune.evaluate_ms": (mean_ms("finetune.evaluate"), "ms"),
        "explain.backmap_ms": (mean_ms("explain.backmap"), "ms"),
        "explain.write_ms": (sum(durations("explain.write")) / n_exports, "ms"),
    }
    print(f"\n{'span':38s} {'calls':>7s} {'total ms':>11s} {'self ms':>11s}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["total_ms"]):
        print(f"{name:38s} {row['calls']:7d} {row['total_ms']:11.1f} {row['self_ms']:11.1f}")
    print(f"\ntraced train_windows_per_s {traced_rate:.2f} ({n_steps} steps)")
    for phase in ("trainer.train", "finetune.evaluate", "explain.export"):
        print(f"coverage of {phase} by its child spans: {100 * tracer.coverage(phase):.1f}%")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tsrm" / "__init__.py").is_file():
        print(f"no program source at {SRC}/tsrm; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    w = WORKLOADS[args.workload]
    tracer = Tracer(enabled=bool(args.trace))
    label = f"{w.name}-s{args.seed}-trace{args.trace}"
    work = OUT / f"{label}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        values, ops = run(w, args.seed, args.seconds, tracer, work)
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values) or any(units[k] != values[k][1] for k in units):
        print(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 1
    result = {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}}
    (OUT / f"{label}.json").write_text(json.dumps(result, indent=1))
    if tracer.enabled:
        tracer.write(OUT / f"{label}-spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
