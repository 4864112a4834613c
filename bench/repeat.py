"""Run every workload k times and summarise each metric.

    python3 bench/repeat.py --runs 10 [--first-seed 1] [--traced 2]

Round i runs each workload once with seed first_seed + i, in BENCHMARK.json
order on even rounds and reversed on odd ones, so that slow periods of a
shared machine fall on every workload alike. Each run is a fresh
``run.py`` process with ``--seconds`` from BENCHMARK.json. The summary gives,
per workload and metric, the median, the quartiles
(``statistics.quantiles(n=4)``) and their distance as a share of the median,
next to the metric's bound. With ``--traced N`` it also makes N traced runs
per workload and reports the tracing overhead: the traced median of
``train_windows_per_s`` against the untraced one. Everything is written to
``.bench_out/repeat-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:                    # a traced run prints its rate and its coverage
        if line.startswith("traced train_windows_per_s"):
            result["traced_train_windows_per_s"] = float(line.split()[2])
        elif line.startswith("coverage of"):
            result.setdefault("coverage", {})[line.split()[2]] = float(line.split()[-1][:-1])
    return result


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "min": min(values), "max": max(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", type=int, default=0)
    args = parser.parse_args(argv)

    results = {w: [] for w in names}
    traced = {w: [] for w in names}
    for i in range(args.runs + args.traced):
        order = names if i % 2 == 0 else names[::-1]
        for w in order:
            trace = int(i >= args.runs)
            start = time.perf_counter()
            r = run_once(w, args.first_seed + i, spec["run_seconds"], trace)
            (traced if trace else results)[w].append(r)
            print(f"{w} seed {args.first_seed + i} trace {trace}: correct {r['correct']} "
                  f"attempted {r['attempted']} failed {r['failed']} "
                  f"in {time.perf_counter() - start:.1f} s", file=sys.stderr, flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for w, runs in results.items():
        if not runs:
            continue
        rows = {}
        print(f"\n{w}: {len(runs)} runs, failed share "
              f"{sorted({r['failed'] / r['attempted'] for r in runs})}")
        print(f"  {'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for m in runs[0]["metrics"]:
            s = summarise([r["metrics"][m]["value"] for r in runs])
            rows[m] = s
            print(f"  {m:22s} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
                  f"{s['spread']:7.3f} {bounds[m]:6.2f}")
        summary[w] = {"untraced": rows}
        if traced[w]:
            tr = {m: summarise([r["metrics"][m]["value"] for r in traced[w]])
                  for m in traced[w][0]["metrics"]}
            rate = statistics.median(r["traced_train_windows_per_s"] for r in traced[w])
            overhead = 1.0 - rate / rows["train_windows_per_s"]["median"]
            summary[w]["traced"] = tr
            summary[w]["tracing_overhead"] = overhead
            print(f"  {len(traced[w])} traced runs: train_windows_per_s {rate:.5g}, "
                  f"tracing overhead {100 * overhead:.1f}%, span coverage (lowest) "
                  + ", ".join(f"{p} {min(r['coverage'][p] for r in traced[w]):.1f}%"
                              for p in traced[w][0]["coverage"]))
    out = ROOT / ".bench_out" / f"repeat-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"args": vars(args), "summary": summary,
                               "runs": results, "traced_runs": traced}, indent=1))
    print(f"\nwritten to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
