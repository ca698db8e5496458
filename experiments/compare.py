"""Seed-paired comparison of two pgtr source trees on test recall@20 and NDCG@20.

    python3 experiments/compare.py A B [--seeds N] [--jobs J]

A and B are checkouts that hold `src/pgtr`, for instance the parent commit
(`git archive`) and a change.  For every cell and seed each tree trains the
model in a fresh process that imports pgtr from that tree's `src/`, with
one BLAS thread, and reports test recall@20 and NDCG@20 of the
best-validation parameters.  The same seed sets the data, the split, the
model's initialization and the batch order, so the two runs of a seed
differ only in the code.  Before the split, user and item ids are renamed
by random permutations drawn from the seed (`relabel`), so that no index
order names a cluster of `clustered_interactions`, which hands out
clusters as index blocks.

The script prints one table per cell (each seed's metrics, B - A, and
the epochs each tree ran) and a summary: per metric, A's mean and seed
standard deviation, the mean paired difference B - A with its 95% t
interval, B's wins and losses over the seeds with the exact two-sided
sign test's p-value (ties dropped), and one verdict (`verdict`):
- "better" or "worse" when the interval excludes 0;
- "equivalent" when it lies inside +-DELTA[metric]: two one-sided tests
  (Schuirmann 1987), each at level 0.025;
- "undecided: add seeds" otherwise;
- "no interval" with one seed.
A change that claims no effect cites "equivalent", which must be shown;
a paired mean inside A's seed spread shows nothing, since pairing
removes that spread.  The summary also counts each tree's capped runs,
those that ran all `max_epochs` epochs: such a run was stopped by the
budget, not by early stopping, so its metrics say how far the budget let
it train.  When any run of either tree is capped, the script exits with
status 1 and names the cell.

Cells:
- dense: `clustered_interactions(800, 1200, per_user=30)`, train fraction
  0.8;
- sparse: the same with per_user 8 and train fraction 0.4;
- dense-tgcn: the dense cell on the paper's second backbone,
  `backbone="transform-gcn"`.
All train the default `PGTRConfig` (but for dense-tgcn's backbone) with lr
5e-3.  The dense cells train at most 60 epochs with a patience of 10, the
sparse cell at most 300 with a patience of 30: at 60/10 sparse runs were
still improving when the budget stopped them.  A run takes about 5-30 s.
"""
import argparse
import dataclasses
import json
import os
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

K = 20
# Equivalence margins for B - A, fixed once for every comparison: half a
# point of recall@20 and of NDCG@20.  That is below the smallest effect a
# design decision here has rested on (the spectral block's 0.007 sparse
# NDCG@20; PGTR's 0.013 NDCG@20 over its bare backbone) and about one
# seed sd of dense recall@20 (0.005), so "equivalent" rules out every
# effect of that size.
DELTA = {"recall": 0.005, "ndcg": 0.005}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 600


@dataclass(frozen=True)
class Cell:
    """One dataset, split and training setting: the arguments of
    `clustered_interactions`, the train fraction of `SplitSpec`, and
    overrides of `PGTRConfig` and `TrainConfig`."""

    name: str
    n_users: int
    n_items: int
    per_user: int
    train_fraction: float
    model: dict = field(default_factory=dict)
    train: dict = field(default_factory=lambda: dict(lr=5e-3, max_epochs=60, patience=10))


CELLS = (
    Cell("dense", 800, 1200, per_user=30, train_fraction=0.8),
    Cell("sparse", 800, 1200, per_user=8, train_fraction=0.4,
         train=dict(lr=5e-3, max_epochs=300, patience=30)),
    Cell("dense-tgcn", 800, 1200, per_user=30, train_fraction=0.8,
         model={"backbone": "transform-gcn"}),
)


def relabel(ds, seed: int):
    """`ds` with its user ids and its item ids each renamed by a random
    permutation, drawn from a stream of `seed` apart from the data's."""
    import numpy as np

    from pgtr import InteractionDataset

    rng = np.random.default_rng([seed, 1])
    users, items = rng.permutation(ds.n_users), rng.permutation(ds.n_items)
    return InteractionDataset(ds.n_users, ds.n_items, users[ds.users], items[ds.items])


def run_cell(cell: Cell, seed: int) -> dict:
    """Train on `cell` with `seed` using the pgtr on sys.path, and return its
    test metrics, the epochs run and the best-validation epoch."""
    import numpy as np

    import pgtr
    from pgtr import (InteractionDataset, PGTRConfig, SplitSpec, TrainConfig, build_graph,
                      evaluate, init_model, split_by_ratio, train)
    from pgtr.synthetic import clustered_interactions

    ds = relabel(clustered_interactions(cell.n_users, cell.n_items, per_user=cell.per_user,
                                        seed=seed), seed)
    fit, val, test = split_by_ratio(ds, SplitSpec(cell.train_fraction, seed=seed))
    state = init_model(build_graph(fit), PGTRConfig(**cell.model), seed=seed)
    state, history = train(state, fit, val, TrainConfig(**cell.train, seed=seed))
    observed = InteractionDataset(ds.n_users, ds.n_items,
                                  np.concatenate([fit.users, val.users]),
                                  np.concatenate([fit.items, val.items]))
    metrics = evaluate(state, observed, test, k=K)
    best = max(history, key=lambda h: h["val_recall"])["epoch"] if history else 0
    return {"recall": metrics.recall_at_k, "ndcg": metrics.ndcg_at_k,
            "epochs": len(history), "best_epoch": best,
            "pgtr": str(Path(pgtr.__file__).resolve().parent)}


def run_in_tree(tree: Path, cell: Cell, seed: int) -> dict:
    """`run_cell` in a fresh process that imports pgtr from `tree`/src."""
    src = (tree / "src").resolve()
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           json.dumps(dataclasses.asdict(cell)), str(seed)]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{tree} {cell.name} seed {seed} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if Path(result["pgtr"]) != src / "pgtr":
        raise RuntimeError(f"{tree}: imported pgtr from {result['pgtr']}, not {src}")
    return result


def compare(tree_a: Path, tree_b: Path, cells: list[Cell], seeds: list[int],
            jobs: int = 1) -> list[tuple[Cell, list[tuple[int, dict, dict]]]]:
    """Each cell with its rows (seed, A's result, B's result), one per seed."""
    tasks = [(cell, seed) for cell in cells for seed in seeds]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        runs_a, runs_b = (pool.map(lambda t, tree=tree: run_in_tree(tree, *t), tasks)
                          for tree in (tree_a, tree_b))
        rows = [(seed, a, b) for (_, seed), a, b in zip(tasks, runs_a, runs_b)]
    return [(cell, rows[i * len(seeds):(i + 1) * len(seeds)]) for i, cell in enumerate(cells)]


def summarize(rows: list[tuple[int, dict, dict]], metric: str) -> dict:
    """A's mean and seed spread, the paired differences B - A with their
    95% t interval (None with one seed), B's wins and losses, the exact
    sign test's p-value and the verdict."""
    from scipy import stats

    a = [ra[metric] for _, ra, _ in rows]
    diffs = [rb[metric] - ra[metric] for _, ra, rb in rows]
    n = len(diffs)
    mean = statistics.fmean(diffs)
    interval = None
    if n > 1:
        half = stats.t.ppf(0.975, n - 1) * statistics.stdev(diffs) / n ** 0.5
        interval = (mean - half, mean + half)
    wins, losses = sum(d > 0 for d in diffs), sum(d < 0 for d in diffs)
    return {"mean_a": statistics.fmean(a), "sd_a": statistics.stdev(a) if n > 1 else 0.0,
            "mean_diff": mean, "interval": interval, "wins": wins, "losses": losses,
            "sign_p": stats.binomtest(wins, wins + losses).pvalue if wins + losses else 1.0,
            "verdict": verdict(interval, DELTA[metric])}


def verdict(interval: tuple[float, float] | None, delta: float) -> str:
    """The call on a paired difference (higher is better) from its 95%
    interval and its equivalence margin `delta`."""
    if interval is None:
        return "no interval"
    low, high = interval
    if low > 0 or high < 0:
        return "better" if low > 0 else "worse"
    if -delta < low and high < delta:
        return "equivalent"
    return "undecided: add seeds"


def capped_runs(cell: Cell, rows: list[tuple[int, dict, dict]]) -> tuple[int, int]:
    """The runs of A and of B that ran all of the cell's `max_epochs`."""
    cap = cell.train["max_epochs"]
    return (sum(ra["epochs"] == cap for _, ra, _ in rows),
            sum(rb["epochs"] == cap for _, _, rb in rows))


def report(results: list[tuple[Cell, list[tuple[int, dict, dict]]]]) -> str:
    lines = []
    for cell, rows in results:
        lines += [f"cell {cell.name}: clustered_interactions({cell.n_users}, {cell.n_items}, "
                  f"per_user={cell.per_user}), train_fraction {cell.train_fraction}, "
                  f"PGTRConfig({cell.model or ''}), {cell.train}", "",
                  "| seed | recall@20 A | recall@20 B | B - A | NDCG@20 A | NDCG@20 B "
                  "| B - A | epochs A / B (best) |",
                  "|---|---|---|---|---|---|---|---|"]
        for seed, ra, rb in rows:
            lines.append(f"| {seed} | {ra['recall']:.4f} | {rb['recall']:.4f} "
                         f"| {rb['recall'] - ra['recall']:+.2e} | {ra['ndcg']:.4f} "
                         f"| {rb['ndcg']:.4f} | {rb['ndcg'] - ra['ndcg']:+.2e} "
                         f"| {ra['epochs']} ({ra['best_epoch']}) / "
                         f"{rb['epochs']} ({rb['best_epoch']}) |")
        lines.append("")
    lines += ["| cell | metric | mean A | seed sd A | mean B - A | 95% interval "
              "| B wins / losses | sign test p | margin | verdict | capped A | capped B |",
              "|---|---|---|---|---|---|---|---|---|---|---|---|"]
    for cell, rows in results:
        capped = capped_runs(cell, rows)
        for metric, label in (("recall", "recall@20"), ("ndcg", "NDCG@20")):
            s = summarize(rows, metric)
            interval = ("—" if s["interval"] is None
                        else "[{:+.2e}, {:+.2e}]".format(*s["interval"]))
            lines.append(f"| {cell.name} | {label} | {s['mean_a']:.4f} | {s['sd_a']:.4f} "
                         f"| {s['mean_diff']:+.2e} | {interval} "
                         f"| {s['wins']} / {s['losses']} | {s['sign_p']:.3g} "
                         f"| ±{DELTA[metric]} | {s['verdict']} "
                         f"| {capped[0]}/{len(rows)} | {capped[1]}/{len(rows)} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--worker"]:
        cell = Cell(**json.loads(argv[1]))
        print(json.dumps(run_cell(cell, int(argv[2]))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--seeds", type=int, default=10, help="seeds 0..N-1 (default 10)")
    parser.add_argument("--jobs", type=int, default=1, help="runs at a time")
    args = parser.parse_args(argv)
    for tree in (args.tree_a, args.tree_b):
        if not (tree / "src" / "pgtr" / "__init__.py").is_file():
            parser.error(f"{tree} holds no src/pgtr")
    if args.seeds < 1 or args.jobs < 1:
        parser.error("--seeds and --jobs must be >= 1")
    results = compare(args.tree_a, args.tree_b, list(CELLS), list(range(args.seeds)),
                      args.jobs)
    print(report(results))
    capped = [f"{cell.name} ({a} of {len(rows)} runs of A, {b} of B)"
              for cell, rows in results for a, b in [capped_runs(cell, rows)] if a or b]
    if capped:
        print("runs used all their max_epochs, so the budget stopped them: "
              + ", ".join(capped), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
