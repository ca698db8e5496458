"""Record a baseline: every workload at one seed, untraced and traced.

    python3 benchmarks/baseline.py [--seed 0]

Writes benchmarks/baseline.json with the environment, each workload's
graph descriptors, its end-to-end and per-layer metrics, and the shares
the workloads were chosen for.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import RUN_SECONDS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run(name: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--trace", str(trace)]
    lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
    out = {"result": json.loads(lines[-1])}
    for line in lines:
        tag, _, rest = line.partition(" ")
        if tag == "env":
            out["env"] = json.loads(rest)
        elif tag == "workload":
            out["graph"] = json.loads(rest.partition(" ")[2])
    return out


def shares(layer: dict) -> dict:
    v = {k: m["value"] for k, m in layer.items()}
    steps = v["train.batch_loss_s"] + v["autodiff.backward_s"] + v["optim.adam_s"]
    return {
        "eigs_of_init": v["linalg.eigs_s"] / v["model.init_s"],
        "loss_self_of_steps": v["train.loss_self_s"] / steps,
        "forward_and_backward_of_steps":
            (v["model.forward_s"] + v["autodiff.backward_s"]) / steps,
        "ranking_of_evaluate": v["train.ranking_s"] / v["train.evaluate_s"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="record benchmarks/baseline.json")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    record = {"seed": args.seed, "seconds": RUN_SECONDS, "workloads": {}}
    for name in WORKLOADS:
        untraced = run(name, args.seed, 0)
        traced = run(name, args.seed, 1)
        record["env"] = untraced["env"]
        record["workloads"][name] = {
            "graph": untraced["graph"],
            "end_to_end": untraced["result"],
            "per_layer": traced["result"],
            "shares": shares(traced["result"]["metrics"]),
        }
    (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
