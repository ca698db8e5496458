"""Tests for the benchmark's own helpers: tail percentile, self time,
wrapping pgtr's functions where their callers look them up, and scaling
timings to a fixed host speed."""
import importlib
import math
from types import SimpleNamespace

import pytest

import hostspeed

from tracing import (
    TARGETS,
    Span,
    Tracer,
    instrument,
    missed_targets,
    roots,
    self_times,
    tail_percentile,
)


class TestTailPercentile:
    def test_ten_samples_beyond(self):
        assert tail_percentile(range(1, 101)) == (90.0, 90, 10)
        assert tail_percentile(range(1, 201)) == (95.0, 190, 10)

    def test_never_below_p90(self):
        # 20 samples: 10 beyond would be p50, so the p90 is taken instead
        # and the short tail is reported.
        assert tail_percentile(range(1, 21)) == (90.0, 18, 2)
        assert tail_percentile([3.0]) == (100.0, 3.0, 0)

    def test_order_does_not_matter(self):
        xs = list(range(100, 0, -1))
        assert tail_percentile(xs) == tail_percentile(sorted(xs))

    def test_no_samples(self):
        with pytest.raises(ValueError):
            tail_percentile([])


class TestSelfTime:
    def test_children_are_subtracted_once(self):
        spans = [Span("a", 0.0, 10.0, None),
                 Span("b", 1.0, 3.0, 0),
                 Span("c", 1.5, 2.5, 1),
                 Span("d", 5.0, 6.0, 0)]
        assert self_times(spans) == pytest.approx([7.0, 1.0, 1.0, 1.0])

    def test_overlap_and_overhang_are_clipped(self):
        spans = [Span("a", 0.0, 4.0, None),
                 Span("b", 1.0, 3.0, 0),
                 Span("c", 2.0, 5.0, 0)]
        assert self_times(spans)[0] == pytest.approx(1.0)

    def test_roots(self):
        spans = [Span("a", 0, 4, None), Span("b", 1, 2, 0), Span("c", 1, 2, 1),
                 Span("d", 5, 6, None)]
        assert roots(spans) == [0, 0, 0, 3]

    def test_tracer_nests(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.spans
        assert inner.parent == 0 and outer.parent is None
        assert outer.start <= inner.start <= inner.end <= outer.end


def _tiny_setup():
    from pgtr.data import SplitSpec, build_graph, split_by_ratio
    from pgtr.model import PGTRConfig, init_model
    from pgtr.synthetic import clustered_interactions
    ds = clustered_interactions(20, 30, n_clusters=2, per_user=6, seed=0)
    fit, _, test = split_by_ratio(ds, SplitSpec(0.8, seed=0))
    return init_model(build_graph(fit), PGTRConfig(h_c=4), seed=0), fit, test


class TestInstrument:
    def test_wraps_module_not_package_attribute_and_restores(self):
        import pgtr
        train_mod = importlib.import_module("pgtr.train")
        originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in TARGETS}
        package_train = pgtr.train
        with instrument(Tracer()):
            assert train_mod.train is not originals[("pgtr.train", "train")]
            assert train_mod.train.__wrapped__ is originals[("pgtr.train", "train")]
            assert pgtr.train is package_train
        for (m, a), fn in originals.items():
            assert getattr(importlib.import_module(m), a) is fn

    def test_restores_after_an_error(self):
        train_mod = importlib.import_module("pgtr.train")
        original = train_mod.evaluate
        with pytest.raises(RuntimeError):
            with instrument(Tracer()):
                raise RuntimeError("boom")
        assert train_mod.evaluate is original

    def test_inner_calls_are_recorded_with_parents(self):
        state, fit, test = _tiny_setup()
        train_mod = importlib.import_module("pgtr.train")
        tracer = Tracer()
        with instrument(tracer):
            train_mod.evaluate(state, fit, test)
        names = [s.name for s in tracer.spans]
        assert names == ["train.evaluate", "model.forward", "backbone.propagate",
                         "backbone.propagate", "train.ranking"]
        assert [s.parent for s in tracer.spans] == [None, 0, 1, 1, 0]
        assert "linalg.eigs" in missed_targets(tracer.spans)
        assert "train.ranking" not in missed_targets(tracer.spans)

    def test_batch_loss_pairs_are_counted(self):
        state, fit, _ = _tiny_setup()
        train_mod = importlib.import_module("pgtr.train")
        tracer = Tracer()
        users, items = fit.users[:8], fit.items[:8]
        with instrument(tracer):
            _, skipped = train_mod.batch_loss(state, users, items, fit.items_of_user())
        assert tracer.counts["train.pairs"] == 8
        assert tracer.counts["train.pairs_skipped"] == skipped


class TestRepeatable:
    def test_same_code_compares_and_other_code_starts_afresh(self, tmp_path, monkeypatch):
        import pipeline
        monkeypatch.setattr(pipeline, "STATE_DIR", tmp_path)
        q = {"recall_at_20": 0.25, "train_loss": [1.5, 1.25]}
        other = {"recall_at_20": 0.5, "train_loss": [1.5, 1.25]}

        def problems(quality, seed=0):
            run = pipeline.Run()
            pipeline.check_repeatable("cold-start", seed, quality, run)
            return run.problems

        assert problems(q) == []        # first run of this code records
        assert problems(q) == []        # a repeat matches
        assert len(problems(other)) == 1
        assert problems(other, seed=1) == []
        monkeypatch.setattr(pipeline, "code_digest", lambda wl: "changed-code")
        assert problems(other) == []    # new code is not held to old outputs


class TestHostSpeed:
    def test_wall_clock_is_unscaled(self):
        out, (wall, scaled) = hostspeed.WallClock().timed(lambda: 7)
        assert out == 7 and wall == scaled >= 0.0

    def test_scaled_by_the_samples_around_a_call(self, monkeypatch):
        clock = hostspeed.HostSpeed(warmup=0)
        # Interpreter samples at 2x, 4x, 1x, 3x and 1x their nominal time; full
        # (interpreter + memory) samples at 0.5x and 1.5x.
        monkeypatch.setattr(clock, "_interp", iter([2.0, 4.0, 1.0, 3.0, 1.0]).__next__)
        fulls = iter([0.5, 1.5])
        monkeypatch.setattr(clock, "_full", lambda n=3: next(fulls))
        ticks = iter([0.0, 0.6, 1.0, 1.3, 2.0, 4.0, 5.0, 5.5])
        monkeypatch.setattr(hostspeed, "time", SimpleNamespace(perf_counter=ticks.__next__))
        assert clock.timed(lambda: "a")[1] == pytest.approx((0.6, 0.6 / 3.0))
        # The next short call shares the sample taken after the previous one.
        assert clock.timed(lambda: "b")[1] == pytest.approx((0.3, 0.3 / 2.5))
        assert clock.timed(lambda: "c", long=True)[1] == pytest.approx((2.0, 2.0))
        # A long call leaves no sample behind, so a short one takes a fresh one.
        assert clock.timed(lambda: "d")[1] == pytest.approx((0.5, 0.5 / 2.0))

    def test_long_call_is_cut_after_each_step(self, monkeypatch):
        clock = hostspeed.HostSpeed(warmup=0)
        # Before the call, after each of two steps, and after the call.
        fulls = iter([1.0, 3.0, 1.0, 2.0])
        monkeypatch.setattr(clock, "_full", lambda n=3: next(fulls))
        ticks = iter([0.0, 0.4, 0.5, 0.7, 1.0, 1.1])
        monkeypatch.setattr(hostspeed, "time", SimpleNamespace(perf_counter=ticks.__next__))
        step = lambda: None  # noqa: E731
        module = SimpleNamespace(step=step)

        def two_steps():
            module.step()
            module.step()
            return "done"

        out, (wall, scaled) = clock.timed(two_steps, long=True, split_at=[(module, "step")])
        # Stretches 0.4, 0.2 and 0.1 s; the samples' own time is left out.
        assert out == "done" and wall == pytest.approx(0.7)
        assert scaled == pytest.approx(0.4 / 2.0 + 0.2 / 2.0 + 0.1 / 1.5)
        assert module.step is step

    def test_real_samples(self):
        clock = hostspeed.HostSpeed(warmup=0)
        out, (wall, scaled) = clock.timed(lambda: sum(range(1000)), long=True)
        assert out == 499500 and math.isfinite(scaled) and scaled > 0.0
        assert len(clock.interp_samples) == len(clock.memory_samples) == 6
        assert "interpreter kernel median" in clock.summary()
