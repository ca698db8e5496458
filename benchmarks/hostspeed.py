"""Scale timings to a fixed host speed.

The benchmark runs on a few cores of a shared machine.  How fast those
cores run changes by up to 1.9x between stretches of a few seconds, with
no CPU time stolen: the same evaluate call takes 26 ms in one 5-second
stretch and 42 ms in another half a minute later, in wall and in CPU time
alike.  A median over one run
cannot remove a change that lasts longer than the run, and the host's
speed also drifts between runs minutes apart.

So the pipeline brackets every timed pgtr call with samples of fixed
reference computations that use neither pgtr nor the run's seed; no
change to pgtr changes them.  A call's time is reported scaled by the
references' nominal time over the mean of the samples taken just before
and just after it: the time the call would take on a host that runs the
references in their nominal time.

- Short calls (`evaluate`) are bracketed by the interpreter kernel:
  Python loops and many small numpy calls, the kind of work pgtr's
  ranking loop and autodiff do.  One sample sits between two calls.
- Long calls (set-up, `train`) also move arrays larger than the cache:
  Lanczos reorthogonalisation against a basis of several MB, and the
  batch-by-batch score matrices.  They are bracketed by both kernels,
  the interpreter kernel and the memory kernel (matrix-vector products
  with a 10 MB basis, elementwise work on an 8 MB array).
- A call of seconds spans several changes of speed.  So `train` is cut
  at every optimizer step, and set-up after every eigensolve: a sample
  of both kernels runs after each `adam_step` or
  `symmetric_eigs_smallest` returns, its time is left out, and each
  stretch between two samples is scaled by its own bracket.

See README.md ("Noise on a shared 2-core host") for how well each tracks.
"""
from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager

import numpy as np
import scipy.sparse

# Fixed reference times, near the median sample time of each kernel on a
# 2-vCPU Intel Xeon VM (numpy 2.4, scipy 1.17, 1 BLAS thread).  Scaled
# times are seconds on a host that runs each kernel in this time.
INTERP_NOMINAL_S = 0.0125
MEMORY_NOMINAL_S = 0.018


def _call_then(fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        hook()
        return out
    return wrapper


@contextmanager
def after_each_call(targets, hook):
    """While active, call hook() after every call of each (module, name)
    in targets, replaced on its module so that callers looking it up
    there hit it."""
    originals = [(module, name, getattr(module, name)) for module, name in targets]
    try:
        for module, name, fn in originals:
            setattr(module, name, _call_then(fn, hook))
        yield
    finally:
        for module, name, fn in originals:
            setattr(module, name, fn)


class WallClock:
    """Unscaled timing: the scaled time is the wall time."""

    def timed(self, fn, long: bool = False, split_at=()):
        """Call fn(); return (its result, (wall seconds, scaled seconds)).

        `long` marks a call that moves large arrays; `split_at` holds
        (module, function name) pairs after whose calls a long call is cut.
        """
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        return out, (wall, wall)


class HostSpeed(WallClock):
    """Timing scaled by reference samples taken around each call."""

    def __init__(self, warmup: int = 3):
        rng = np.random.default_rng(2412_18731)
        self._rows = rng.standard_normal((40, 600))
        self._targets = np.arange(0, 600, 37)
        self._dense = rng.standard_normal((192, 192))
        self._wide = rng.standard_normal((512, 512))
        self._sparse = scipy.sparse.random(2000, 2000, density=0.005, random_state=rng,
                                           format="csr")
        self._vec = rng.standard_normal(2000)
        self._basis = rng.standard_normal((2000, 640))
        self._large = rng.standard_normal((1024, 1024))
        self.interp_samples: list[float] = []
        self.memory_samples: list[float] = []
        for _ in range(warmup):
            self._interp_kernel()
            self._memory_kernel()
        self._last = None

    def _interp_kernel(self):
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        for row in self._rows:
            order = np.argsort(-row, kind="stable")
            np.isin(order[:20], self._targets)
        self._dense @ self._dense
        np.exp(np.where(self._wide > 0.0, -self._wide, self._wide)).sum()
        v = self._vec
        for _ in range(30):
            v = self._sparse @ v
        return acc

    def _memory_kernel(self):
        v = self._vec
        for _ in range(2):
            v = v - self._basis @ (self._basis.T @ v)
        return np.exp(np.where(self._large > 0.0, -self._large, self._large)).sum() + v[0]

    @staticmethod
    def _sample(kernel, into: list[float]) -> float:
        t0 = time.perf_counter()
        kernel()
        seconds = time.perf_counter() - t0
        into.append(seconds)
        return seconds

    def _interp(self) -> float:
        """One interpreter sample, relative to its nominal time."""
        return self._sample(self._interp_kernel, self.interp_samples) / INTERP_NOMINAL_S

    def _full(self, n: int = 3) -> float:
        """Median of n interpreter and n memory samples, each relative to its
        nominal time."""
        return statistics.median(
            x for _ in range(n)
            for x in (self._interp(),
                      self._sample(self._memory_kernel, self.memory_samples) / MEMORY_NOMINAL_S))

    def timed(self, fn, long: bool = False, split_at=()):
        sample = self._full if long else self._interp
        if long or self._last is None:
            self._last = sample()
        stretches = []  # (seconds, sample before, sample after)
        start = [0.0]

        def cut():
            seconds = time.perf_counter() - start[0]
            after = self._full(1)
            stretches.append((seconds, self._last, after))
            self._last = after
            start[0] = time.perf_counter()

        with after_each_call(split_at, cut):
            start[0] = time.perf_counter()
            out = fn()
            seconds = time.perf_counter() - start[0]
        after = sample()
        stretches.append((seconds, self._last, after))
        self._last = None if long else after
        return out, (sum(s for s, _, _ in stretches),
                     sum(s * 2.0 / (b + a) for s, b, a in stretches))

    def summary(self) -> str:
        return (f"interpreter kernel median {statistics.median(self.interp_samples):.5f} s "
                f"(nominal {INTERP_NOMINAL_S} s), memory kernel median "
                f"{statistics.median(self.memory_samples):.5f} s "
                f"(nominal {MEMORY_NOMINAL_S} s)")
