"""pgtr benchmark launcher.

    python3 benchmarks/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Runs each workload (see workloads.py) in a fresh Python process with the
BLAS/OpenMP thread count pinned, building nothing: pgtr is imported from
the checkout's `src/`.  Without --workload every workload runs in turn.
Each workload prints its metrics by name and unit, and as its last line
one JSON object {"correct", "attempted", "failed", "metrics"}; with
--trace 1 the metrics are the per-layer ones from a traced run.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# One thread: on a shared host a second BLAS thread waits on whichever
# core the neighbours slow down.  A fixed count also keeps BLAS reductions
# in one order, so quality outputs repeat bit for bit.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170
# BENCHMARK.json's run_seconds: the length of a run when --seconds is not given.
RUN_SECONDS = 15


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env.update({var: threads for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_one(name: str, args) -> int:
    cmd = [sys.executable, str(HERE / "pipeline.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, env=child_env(), timeout=CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1


def main() -> int:
    parser = argparse.ArgumentParser(description="pgtr benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "pgtr" / "__init__.py").is_file():
        print(f"pgtr sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    return max(run_one(name, args) for name in names)


if __name__ == "__main__":
    sys.exit(main())
