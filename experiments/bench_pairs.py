"""Alternating benchmark pairs of two source trees, with gain and bound verdicts.

    python3 experiments/bench_pairs.py A B [--workload W] [--pairs N] [--first-seed S]

A is the parent (for instance a `git archive` of it) and B the change.
Without --workload, every workload of A's BENCHMARK.json is run in turn,
in its listed order, with one table per workload.  For each workload W
and seed s = S .. S+N-1 the script runs each tree's own
`benchmarks/run.py --workload W --seed s` in a fresh process and reads
the last JSON line it prints.  Which tree runs first alternates: A on
even pairs, B on odd ones.  A run that is not `correct`, or that counts
failed operations, stops the script with status 1 and a message naming
the tree and the seed.

It then prints one Markdown row per end-to-end metric of A's
BENCHMARK.json: each tree's median with its [q25, q75] over the pairs,
B / A - 1 of the medians, and B's wins (a pair where B reads better in
the metric's direction; equal readings are ties and count for neither).
Two verdicts follow.  The gain verdict is "met" when B wins at least 9
in 10 of all pairs and the medians differ by more than A's interquartile
range, "not met" otherwise.  The no-regression verdict is "worse beyond
bound" when B's median is worse than A's, in the metric's direction, by
more than the metric's `bound` times A's median, and "within bound"
otherwise.  Under each table, after a blank line, one Markdown list
line per pair gives its seed, which tree ran first and both trees'
readings of every end-to-end metric, A's / B's, so that every run made
is on record.  When any metric of any workload is worse beyond its bound,
the script names those metrics on stderr, one line per workload, and
exits with status 1 once every workload has run.  It imports no pgtr:
each run imports its own tree's sources, and it reads only A's
BENCHMARK.json.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

CHILD_TIMEOUT_S = 300


class RunFailed(RuntimeError):
    pass


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """The last JSON line of `tree`'s benchmark run of `workload` at `seed`."""
    cmd = [sys.executable, str(tree / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", str(seed)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"run {tree} seed {seed} took over {CHILD_TIMEOUT_S} s") from None
    return last_json(done.stdout, f"{tree} seed {seed}")


def last_json(stdout: str, name: str) -> dict:
    """The run's last JSON line, checked: RunFailed naming the run unless
    it is `correct` with 0 failed operations."""
    lines = [line for line in stdout.splitlines() if line.startswith("{")]
    run = json.loads(lines[-1]) if lines else {}
    if not run.get("correct") or run.get("failed", 1) > 0:
        raise RunFailed(f"run {name} is not correct or failed operations: "
                        f"{lines[-1] if lines else 'no JSON line'}")
    return run


def a_first(i: int) -> bool:
    """Whether A runs first in pair i: on even pairs, B on odd ones."""
    return i % 2 == 0


def run_pairs(tree_a: Path, tree_b: Path, workload: str, pairs: int,
              first_seed: int) -> list[tuple[dict, dict]]:
    """(A's run, B's run) per seed, the first from `first_seed` on."""
    out = []
    for i in range(pairs):
        seed = first_seed + i
        if a_first(i):
            out.append((run_once(tree_a, workload, seed), run_once(tree_b, workload, seed)))
        else:
            b = run_once(tree_b, workload, seed)
            out.append((run_once(tree_a, workload, seed), b))
    return out


def gain_met(a: np.ndarray, b: np.ndarray, lower: bool) -> bool:
    """B's gain over A on paired readings: B better on at least 9 in 10 of
    the pairs, and the medians apart by more than A's interquartile range."""
    wins = np.sum(b < a if lower else b > a)
    q25, q75 = np.percentile(a, [25, 75])
    gap = np.median(a) - np.median(b) if lower else np.median(b) - np.median(a)
    return bool(wins >= 0.9 * len(a) and gap > q75 - q25)


def worse_beyond_bound(a: np.ndarray, b: np.ndarray, lower: bool, bound: float) -> bool:
    """B's median worse than A's, in the metric's direction, by more than
    `bound` times A's median."""
    worse = np.median(b) - np.median(a) if lower else np.median(a) - np.median(b)
    return bool(worse > bound * abs(np.median(a)))


def readings(metric: dict, pairs: list[tuple[dict, dict]]):
    """A's and B's values of `metric` over the pairs, and whether lower is better."""
    name = metric["name"]
    a = np.array([ra["metrics"][name]["value"] for ra, _ in pairs])
    b = np.array([rb["metrics"][name]["value"] for _, rb in pairs])
    return a, b, metric["better"] == "lower"


def row(metric: dict, pairs: list[tuple[dict, dict]]) -> str:
    """The Markdown cells of one end-to-end metric {"name", "better", "bound"}."""
    a, b, lower = readings(metric, pairs)
    wins = int(np.sum(b < a if lower else b > a))
    ties = int(np.sum(a == b))
    (qa25, med_a, qa75), (qb25, med_b, qb75) = (np.percentile(v, [25, 50, 75]) for v in (a, b))
    change = f"{med_b / med_a - 1:+.1%}" if med_a else "—"
    tied = f" ({ties} ties)" if ties else ""
    beyond = worse_beyond_bound(a, b, lower, metric["bound"])
    return (f"| {metric['name']} | {med_a:.6g} [{qa25:.6g}, {qa75:.6g}] "
            f"| {med_b:.6g} [{qb25:.6g}, {qb75:.6g}] | {change} "
            f"| {wins}/{len(pairs)}{tied} "
            f"| {'met' if gain_met(a, b, lower) else 'not met'} "
            f"| {'worse beyond bound' if beyond else 'within bound'} |")


def table(workload: str, metrics: list[dict], pairs: list[tuple[dict, dict]]) -> str:
    lines = ["| workload | metric | parent median [q25, q75] | change median [q25, q75] "
             "| change/parent − 1 | change wins | gain verdict | no-regression verdict |",
             "|---|---|---|---|---|---|---|---|"]
    lines += [f"| {workload} {row(metric, pairs)}" for metric in metrics]
    return "\n".join(lines)


def pair_lines(metrics: list[dict], pairs: list[tuple[dict, dict]], first_seed: int) -> str:
    """One Markdown list line per pair: its seed, the tree that ran first
    and each metric's readings, A's / B's, to 9 significant digits."""
    lines = []
    for i, (ra, rb) in enumerate(pairs):
        values = ", ".join(f"{m['name']} {ra['metrics'][m['name']]['value']:.9g} / "
                           f"{rb['metrics'][m['name']]['value']:.9g}" for m in metrics)
        first = "parent" if a_first(i) else "change"
        lines.append(f"- seed {first_seed + i}, {first} first: {values}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--workload", help="one workload of A's BENCHMARK.json "
                                           "(default: each of them in turn)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args(argv)
    for tree in (args.tree_a, args.tree_b):
        if not (tree / "benchmarks" / "run.py").is_file():
            parser.error(f"{tree} holds no benchmarks/run.py")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    bench = json.loads((args.tree_a / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    workloads = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    status = 0
    for i, workload in enumerate(workloads):
        try:
            pairs = run_pairs(args.tree_a, args.tree_b, workload, args.pairs, args.first_seed)
        except RunFailed as err:
            print(err, file=sys.stderr)
            return 1
        print(("\n" if i else "") + table(workload, metrics, pairs) + "\n\n"
              + pair_lines(metrics, pairs, args.first_seed), flush=True)
        worse = [m["name"] for m in metrics
                 if worse_beyond_bound(*readings(m, pairs), m["bound"])]
        if worse:
            print(f"worse beyond bound on {workload}: {', '.join(worse)}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
