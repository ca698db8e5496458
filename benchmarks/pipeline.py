"""Run one benchmark workload in this process and print its result.

    python3 benchmarks/pipeline.py --workload NAME --seed N --seconds S --trace 0|1

`run.py` starts this script in a fresh process per workload with the
BLAS thread count pinned and `src/` on PYTHONPATH; run it through
`run.py`.  The pipeline goes through pgtr's public API, looking every
function up on its module at call time so the traced run's wrappers
apply: split_by_ratio -> build_graph -> init_model -> train -> evaluate,
then save_checkpoint/load_checkpoint.

A run is ROUNDS identical rounds of set-up, training and repeated
evaluation, followed by one checkpoint round trip.  The host's speed
drifts within seconds, so each metric takes samples from every round
rather than from one stretch of the run, and untraced every timed call
is scaled to a fixed host speed (see hostspeed.py).  Untraced (--trace 0)
the last line holds the end-to-end metrics.  Traced (--trace 1) untraced and
traced rounds alternate; the last line holds the per-layer metrics
derived from the traced rounds' spans, with the tracing overhead.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy
from scipy.sparse.csgraph import connected_components

import pgtr
from pgtr import synthetic
from hostspeed import HostSpeed, WallClock
from tracing import Tracer, instrument, missed_targets, roots, self_times, tail_percentile
from workloads import WORKLOADS, Workload

D = importlib.import_module("pgtr.data")
M = importlib.import_module("pgtr.model")
T = importlib.import_module("pgtr.train")
E = importlib.import_module("pgtr.encodings")
# Where untraced timings of set-up and training are cut for host-speed
# samples (see hostspeed.py): after each eigensolve and optimizer step.
SETUP_CUTS = ((E, "symmetric_eigs_smallest"),)
TRAIN_CUTS = ((T, "adam_step"),)

ROUNDS = 3
# 3 rounds x 34 calls give 102 evaluate samples, so eval_s_tail is a p90
# with 10 samples beyond it.
MIN_EVALS_PER_ROUND = 34
K = 20
HERE = Path(__file__).resolve().parent
# Quality outputs of earlier runs in this checkout, keyed by the code under
# test, and compared exactly on every later run of the same code and seed.
STATE_DIR = HERE / ".state"


class Run:
    """Operations attempted and failed, and failed output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str):
        if not ok:
            self.problems.append(what)


def state_digest(state) -> str:
    h = hashlib.sha256()
    for _, tensor in state.named_parameters():
        h.update(tensor.data.tobytes())
    if state.enc.spectral is not None:
        h.update(state.enc.spectral.matrix.tobytes())
    return h.hexdigest()


def same_ranking(a, b) -> bool:
    return (a.recall_at_k == b.recall_at_k and a.ndcg_at_k == b.ndcg_at_k
            and np.array_equal(a.per_user_recall, b.per_user_recall)
            and np.array_equal(a.per_user_ndcg, b.per_user_ndcg))


def set_up(ds, seed: int):
    fit, val, test = D.split_by_ratio(ds, D.SplitSpec(0.8, seed=seed))
    graph = D.build_graph(fit)
    return fit, val, test, graph, M.init_model(graph, M.PGTRConfig(), seed=seed)


def one_round(wl: Workload, ds, seed: int, seconds: float, run: Run, clock: WallClock,
              tracer: Tracer | None = None, n_evals: int | None = None) -> dict:
    """Set up, train a fixed number of epochs, then evaluate repeatedly.

    Evaluation runs until the round has lasted `seconds` (at least
    MIN_EVALS_PER_ROUND calls), or exactly `n_evals` calls when given.
    Every timing is a (wall, scaled) pair taken by `clock`.
    """
    phase = tracer.span if tracer is not None else (lambda name: nullcontext())
    start = time.perf_counter()
    with phase("phase.setup"):
        run.attempted += 1
        (fit, val, test, graph, state), setup_s = clock.timed(lambda: set_up(ds, seed),
                                                              long=True, split_at=SETUP_CUTS)
    digest = state_digest(state)
    cfg = T.TrainConfig(batch_size=wl.batch_size, max_epochs=wl.epochs,
                        patience=wl.epochs, seed=seed)
    with phase("phase.train"):
        run.attempted += 1
        (state, history), train_s = clock.timed(lambda: T.train(state, fit, val, cfg),
                                                  long=True, split_at=TRAIN_CUTS)
    if len(history) < wl.epochs:
        run.failed += 1  # train took its divergence path and stopped early

    def more() -> bool:
        if n_evals is not None:
            return len(evals) < n_evals
        return len(evals) < MIN_EVALS_PER_ROUND or time.perf_counter() - start < seconds

    evals, ranking = [], None
    with phase("phase.eval"):
        while more():
            run.attempted += 1
            result, timing = clock.timed(lambda: T.evaluate(state, fit, test, k=K))
            evals.append(timing)
            if ranking is None:
                ranking = result
            run.check(same_ranking(result, ranking), "repeated evaluate calls disagree")
    return {"setup_s": setup_s, "train_s": train_s, "history": history, "evals": evals,
            "ranking": ranking, "digest": digest, "fit_pairs": len(fit),
            "wall_s": time.perf_counter() - start,
            "pipeline": (fit, test, graph, state)}


def release(rounds: list[dict]):
    """Drop finished rounds' models so only one is alive at a time."""
    for r in rounds:
        r.pop("pipeline", None)


def checkpoint_round_trip(last: dict, run: Run, clock: WallClock,
                          tracer: Tracer | None = None) -> float:
    """Save the trained state, load it back, and require the same ranking.
    Returns the scaled load time."""
    fit, test, graph, state = last["pipeline"]
    path = STATE_DIR / f"checkpoint-{os.getpid()}.bin"
    with tracer.span("phase.checkpoint") if tracer is not None else nullcontext():
        run.attempted += 3
        M.save_checkpoint(state, path)
        loaded, (_, load_s) = clock.timed(lambda: M.load_checkpoint(path, graph), long=True)
        path.unlink()
        result = T.evaluate(loaded, fit, test, k=K)
    run.check(same_ranking(result, last["ranking"]),
              "checkpoint round trip changed the evaluate result")
    return load_s


def quality(rnd: dict) -> dict:
    ranking = rnd["ranking"]
    return {"recall_at_20": ranking.recall_at_k, "ndcg_at_20": ranking.ndcg_at_k,
            "train_loss": [h["train_loss"] for h in rnd["history"]],
            "val_recall": [h["val_recall"] for h in rnd["history"]]}


def check_rounds(rounds: list[dict], run: Run) -> dict:
    """Every round must build and train the same model; returns its quality."""
    q = quality(rounds[0])
    run.check(len({r["digest"] for r in rounds}) == 1,
              "repeated set-up with one seed built different models")
    run.check(all(quality(r) == q for r in rounds[1:]),
              "repeated training with one seed gave different quality outputs")
    for name in ("recall_at_20", "ndcg_at_20"):
        run.check(math.isfinite(q[name]) and 0.0 <= q[name] <= 1.0,
                  f"{name}={q[name]} is not a finite value in [0, 1]")
    run.check(all(math.isfinite(x) for x in q["train_loss"]),
              f"loss curve {q['train_loss']} is not finite")
    return q


def code_digest(wl: Workload) -> str:
    """Hash of everything that sets the quality outputs: pgtr's sources, this
    pipeline and its workload, and the numeric environment."""
    h = hashlib.sha256()
    src = Path(pgtr.__file__).resolve().parent
    files = sorted(src.rglob("*.py")) + [HERE / "pipeline.py", HERE / "workloads.py"]
    for path in files:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    h.update(repr((wl, environment())).encode())
    return h.hexdigest()[:16]


def check_repeatable(name: str, seed: int, q: dict, run: Run):
    """Quality outputs must be identical to any earlier run of the same code
    with this seed.  A change to pgtr or to the workload starts afresh."""
    path = STATE_DIR / f"quality-{name}-seed{seed}-{code_digest(WORKLOADS[name])}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        run.check(earlier == q, f"quality outputs differ from an earlier run "
                                f"with seed {seed}: {earlier} != {q}")
        return
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(q))
    os.replace(tmp, path)


def graph_descriptors(graph) -> dict:
    n_comp, _ = connected_components(graph.full_adjacency(), directed=False)
    return {"nodes": int(graph.n_users + graph.n_items), "fit_pairs": int(graph.user_degree.sum()),
            "components": int(n_comp), "isolated": int(np.sum(graph.degrees() == 0))}


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "pgtr": pgtr.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}


def timing_metrics(rounds: list[dict], which: int) -> tuple[dict, tuple]:
    """Timing metrics from the wall (which=0) or scaled (which=1) times."""
    evals = [t[which] for r in rounds for t in r["evals"]]
    pct, tail, beyond = tail_percentile(evals)
    metrics = {
        "setup_s": (statistics.median(r["setup_s"][which] for r in rounds), "s"),
        "train_pairs_per_s": (statistics.median(
            r["fit_pairs"] * len(r["history"]) / r["train_s"][which] for r in rounds),
            "pairs/s"),
        "eval_s_p50": (statistics.median(evals), "s"),
        "eval_s_tail": (tail, "s"),
    }
    return metrics, (pct, len(evals), beyond)


def end_to_end_metrics(rounds: list[dict]) -> tuple[dict, str]:
    """Scaled timings, peak memory and the final loss; the wall-clock
    timings go into the returned note."""
    metrics, (pct, n, beyond) = timing_metrics(rounds, 1)
    metrics.update({
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "final_train_loss": (rounds[0]["history"][-1]["train_loss"], "nats"),
    })
    wall, _ = timing_metrics(rounds, 0)
    note = "; ".join([tail_note("eval_s_tail", pct, n, beyond),
                      "wall clock: " + " ".join(f"{k}={v:.6g}" for k, (v, _) in wall.items())])
    return metrics, note


def tail_note(name: str, pct: float, n: int, beyond: int) -> str:
    note = f"{name} is p{pct:.1f} of {n} samples, {beyond} beyond it"
    return note + (" (fewer than 10: a noisy tail)" if beyond < 10 else "")


def layer_metrics(tracer: Tracer, n_rounds: int, overhead_frac: float) -> dict:
    """Per-layer numbers from the traced rounds' spans.

    Set-up and training layers are per-round means over the traced rounds;
    steps are pooled; evaluate, ranking and checkpoint load are medians
    per call.
    """
    spans = tracer.spans
    own = self_times(spans)
    phase_of = [spans[r].name for r in roots(spans)]

    def pick(name, phase):
        return [i for i, s in enumerate(spans) if s.name == name and phase_of[i] == phase]

    def per_round(name, phase, times=None):
        return sum((times or [s.seconds for s in spans])[i] for i in pick(name, phase)) / n_rounds

    def calls(name, phase):
        return len(pick(name, phase)) / n_rounds

    def median_s(name, phase):
        return statistics.median(spans[i].seconds for i in pick(name, phase))

    losses = pick("train.batch_loss", "phase.train")
    adams = pick("optim.adam", "phase.train")
    steps = [spans[a].end - spans[b].start for b, a in zip(losses, adams)]
    pct, step_tail, beyond = tail_percentile(steps)
    print(tail_note("train.step_s_tail", pct, len(steps), beyond))
    return {
        "data.split_s": (per_round("data.split", "phase.setup"), "s"),
        "data.build_graph_s": (per_round("data.build_graph", "phase.setup"), "s"),
        "model.init_s": (per_round("model.init", "phase.setup"), "s"),
        "encodings.build_s": (per_round("encodings.build", "phase.setup"), "s"),
        "linalg.eigs_s": (per_round("linalg.eigs", "phase.setup"), "s"),
        "linalg.eigs_calls": (calls("linalg.eigs", "phase.setup"), "count"),
        "linalg.pagerank_s": (per_round("linalg.pagerank", "phase.setup"), "s"),
        "model.load_checkpoint_s": (median_s("model.load_checkpoint", "phase.checkpoint"), "s"),
        "train.batch_loss_s": (per_round("train.batch_loss", "phase.train"), "s"),
        "train.loss_self_s": (per_round("train.batch_loss", "phase.train", own), "s"),
        "model.forward_s": (per_round("model.forward", "phase.train"), "s"),
        "model.forward_calls": (calls("model.forward", "phase.train"), "count"),
        "model.forward_self_s": (per_round("model.forward", "phase.train", own), "s"),
        "backbone.propagate_s": (per_round("backbone.propagate", "phase.train"), "s"),
        "backbone.propagate_calls": (calls("backbone.propagate", "phase.train"), "count"),
        "autodiff.backward_s": (per_round("autodiff.backward", "phase.train"), "s"),
        "optim.adam_s": (per_round("optim.adam", "phase.train"), "s"),
        "train.step_s_p50": (statistics.median(steps), "s"),
        "train.step_s_tail": (step_tail, "s"),
        "train.kept_pair_ratio": (
            1.0 - tracer.counts["train.pairs_skipped"] / tracer.counts["train.pairs"], "ratio"),
        "train.evaluate_s": (median_s("train.evaluate", "phase.eval"), "s"),
        "train.ranking_s": (median_s("train.ranking", "phase.eval"), "s"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, run: Run) -> dict:
    wl = WORKLOADS[name]
    ds = synthetic.clustered_interactions(wl.n_users, wl.n_items, per_user=wl.per_user,
                                          seed=seed)
    STATE_DIR.mkdir(exist_ok=True)
    round_s = seconds / ROUNDS
    if not trace:
        clock = HostSpeed()
        rounds = []
        for _ in range(ROUNDS):
            release(rounds)
            rounds.append(one_round(wl, ds, seed, round_s, run, clock))
        print("workload", name, json.dumps(graph_descriptors(rounds[-1]["pipeline"][2])))
        check_repeatable(name, seed, check_rounds(rounds, run), run)
        load_s = checkpoint_round_trip(rounds[-1], run, clock)
        metrics, note = end_to_end_metrics(rounds)
        print("host speed:", clock.summary())
        print(f"{note}; checkpoint_load_s={load_s:.4f} s; "
              f"recall_at_20={rounds[0]['ranking'].recall_at_k:.6g} "
              f"ndcg_at_20={rounds[0]['ranking'].ndcg_at_k:.6g}")
        return metrics

    # Untraced and traced rounds alternate with the same evaluate count,
    # so the overhead compares equal work done at nearby times.  Per-layer
    # numbers are wall times: no reference samples run inside the rounds.
    clock = WallClock()
    tracer = Tracer()
    plain, traced, n_evals = [], [], None
    for is_traced in (False, True, False, True):
        release(plain + traced)
        if is_traced:
            with instrument(tracer):
                traced.append(one_round(wl, ds, seed, round_s, run, clock, tracer, n_evals))
        else:
            plain.append(one_round(wl, ds, seed, round_s, run, clock, n_evals=n_evals))
            n_evals = len(plain[0]["evals"])
    with instrument(tracer):
        checkpoint_round_trip(traced[-1], run, clock, tracer)
    check_repeatable(name, seed, check_rounds(plain + traced, run), run)
    missed = missed_targets(tracer.spans)
    run.check(not missed, f"traced run never hit {missed}")
    overhead = (statistics.median(r["wall_s"] for r in traced)
                / statistics.median(r["wall_s"] for r in plain) - 1.0)
    return layer_metrics(tracer, len(traced), overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print("env", json.dumps(environment()))
    run = Run()
    metrics = {}
    try:
        metrics = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), run)
    except Exception:  # a failed operation is counted, not fatal to the suite
        traceback.print_exc()
        run.failed += 1
        run.problems.append("the workload raised")
    for problem in run.problems:
        print("CHECK FAILED:", problem)
    for key, (value, unit) in metrics.items():
        print(f"  {key:<24} {value:.6g} {unit}")
    print(f"  failed_frac              {run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed} of {run.attempted} operations)")
    correct = not run.problems and run.failed == 0
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
