"""Set a workload up once in this fresh process and print the seconds it took.

    python3 bench/setup_once.py WORKLOAD CSV WORK_DIR

run.py starts this twice per run, one after the other, so that ``setup_s``
is a median over three fresh processes. The caller pins the BLAS threads
through the environment and puts the program's source on PYTHONPATH.
"""

import sys
from pathlib import Path

import numpy  # noqa: F401  (loaded before the clock starts, as in run.py)

from lifecycle import setup
from spans import Tracer
from workloads import WORKLOADS

if __name__ == "__main__":
    name, csv_path, work_dir = sys.argv[1:4]
    Path(work_dir).mkdir(parents=True, exist_ok=True)
    print(setup(WORKLOADS[name], Path(csv_path), Path(work_dir), Tracer(False)).seconds)
