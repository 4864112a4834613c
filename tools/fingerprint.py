"""Print sha256 fingerprints of seeded training and evaluation, one JSON
line per benchmark shape.

    python3 tools/fingerprint.py [--root DIR]

For each workload of ``bench/workloads.py`` the benchmark's own set-up
(``bench/lifecycle.py``) builds the model and objective from the workload's
generated CSV, ``tsrm.train`` runs one seeded epoch with ``bench/run.py``'s
batch size and learning rate, and the trained model is run in eval mode on
the first held-out window (B=1) and on the first 64 (B=64) of
``bench/run.py``'s evaluation inputs. Each line holds the sha256 of the
trained parameters (dtype, shape and bytes, in ``parameter_table`` order)
and of each eval forward's output, class logits, attention vectors and
feature scores.

``--root`` names the checkout whose ``src`` and ``bench`` are imported
(this file's checkout by default), so that two checkouts are compared from
one copy of this tool:

    python3 tools/fingerprint.py > new.jsonl
    python3 tools/fingerprint.py --root ../parent > old.jsonl
    diff old.jsonl new.jsonl

A change that keeps every bit of the arithmetic prints the same lines.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

SERIES_SEED = 1
EVAL_SIZES = (1, 64)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def fingerprint(w, work: Path) -> dict:
    import run
    from lifecycle import MODEL_SEED, setup
    from spans import Tracer
    from workloads import BATCH_SIZE, generate_series, reference_test_windows, write_csv

    series = generate_series(w, SERIES_SEED)
    csv_path = work / "series.csv"
    write_csv(series, csv_path)
    s = setup(w, csv_path, work, Tracer(enabled=False))
    import tsrm
    from tsrm.autodiff import no_grad

    cfg = tsrm.TrainConfig(max_epochs=1, batch_size=BATCH_SIZE,
                           initial_lr=run.LEARNING_RATE, seed=MODEL_SEED)
    model, log = tsrm.train(s.model, s.objective, cfg)
    line = {"workload": w.name, "steps": log.total_steps,
            "params": digest(*(p.data for p in model.parameters()))}
    inputs, _ = run.eval_inputs(w, s.test_ds, reference_test_windows(w, series))
    with no_grad():
        for n in EVAL_SIZES:
            trace = model.forward(inputs[:n])
            line[f"eval_b{min(n, len(inputs))}"] = digest(
                trace.output.data, trace.class_logits.data, trace.attention,
                trace.feature_scores)
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ and bench/ are used")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from workloads import WORKLOADS

    for w in WORKLOADS.values():
        with tempfile.TemporaryDirectory() as work:
            print(json.dumps(fingerprint(w, Path(work))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
