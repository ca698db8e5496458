"""Spans around pgtr's public functions, recorded from outside the package.

The traced run replaces each function named in TARGETS, in the module
where its caller looks it up, by a wrapper that records a span (name,
start, end, parent) in memory.  `instrument` restores the originals when
it exits.  The helpers that turn spans into per-layer numbers (self time,
tail percentile) live here too, so they can be tested without a run.
"""
from __future__ import annotations

import functools
import importlib
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# (module the caller resolves the name in, attribute, span name).  The
# package re-exports `train`, so `pgtr.train` as an attribute is the
# function; importlib returns the module itself from sys.modules.
TARGETS = (
    ("pgtr.data", "split_by_ratio", "data.split"),
    ("pgtr.data", "build_graph", "data.build_graph"),
    ("pgtr.model", "init_model", "model.init"),
    ("pgtr.model", "build_encoding_set", "encodings.build"),
    ("pgtr.encodings", "symmetric_eigs_smallest", "linalg.eigs"),
    ("pgtr.encodings", "pagerank", "linalg.pagerank"),
    ("pgtr.model", "load_checkpoint", "model.load_checkpoint"),
    ("pgtr.model", "propagate_layer", "backbone.propagate"),
    ("pgtr.train", "train", "train.train"),
    ("pgtr.train", "forward", "model.forward"),
    ("pgtr.train", "batch_loss", "train.batch_loss"),
    ("pgtr.autodiff", "backward", "autodiff.backward"),
    ("pgtr.train", "adam_step", "optim.adam"),
    ("pgtr.train", "evaluate", "train.evaluate"),
    ("pgtr.train", "ranking_metrics", "train.ranking"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span list plus counters taken at the same boundaries."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter()


def _wrap(fn, tracer: Tracer, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if name == "train.batch_loss":
            # batch_loss(state, users, items, ...) -> (loss, pairs skipped)
            tracer.counts["train.pairs"] += len(args[1])
            tracer.counts["train.pairs_skipped"] += int(result[1])
        return result
    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it."""
    originals = []
    try:
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, _wrap(fn, tracer, span_name))
        yield tracer
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)


def missed_targets(spans: list[Span]) -> list[str]:
    """Span names of targets that no recorded span hit."""
    seen = {s.name for s in spans}
    return [name for _, _, name in TARGETS if name not in seen]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for idx, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children[idx]):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.seconds - covered)
    return out


def roots(spans: list[Span]) -> list[int]:
    """Index of the outermost enclosing span of each span (parents come first)."""
    out: list[int] = []
    for idx, s in enumerate(spans):
        out.append(idx if s.parent is None else out[s.parent])
    return out


def tail_percentile(samples, beyond: int = 10, floor: float = 90.0):
    """Highest percentile with at least `beyond` samples above it, but never
    below the `floor` percentile.

    Returns (percentile, value, samples above it).  The value is a sorted
    sample by nearest rank: the one with `beyond` samples after it, or the
    `floor` percentile when there are too few samples for that.
    """
    xs = sorted(samples)
    if not xs:
        raise ValueError("need at least one sample")
    n = len(xs)
    k = max(n - beyond - 1, math.ceil(n * floor / 100.0) - 1)
    return 100.0 * (k + 1) / n, xs[k], n - 1 - k
