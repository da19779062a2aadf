"""Tracer core: nesting, self time, thread safety, counters, interop."""

import threading

import pytest

from repro.telemetry import Tracer
from repro.telemetry.tracer import Span


class FakeClock:
    """A controllable monotonic clock for deterministic span timing."""

    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture
def clock():
    return FakeClock(100.0)


@pytest.fixture
def tracer(clock):
    return Tracer(run_id="test", clock=clock)


class TestSpans:
    def test_basic_span(self, tracer, clock):
        with tracer.span("load", category="phase", rows=10):
            clock.advance(2.0)
        (s,) = tracer.spans
        assert s.name == "load"
        assert s.category == "phase"
        assert s.start_s == pytest.approx(0.0)
        assert s.duration_s == pytest.approx(2.0)
        assert s.end_s == pytest.approx(2.0)
        assert s.attrs == {"rows": 10}
        assert s.parent_id is None

    def test_nesting_parent_child_and_self_time(self, tracer, clock):
        with tracer.span("outer"):
            clock.advance(1.0)
            with tracer.span("inner"):
                clock.advance(3.0)
            clock.advance(1.0)
        inner, outer = tracer.spans  # children close first
        assert inner.parent_id == outer.span_id
        assert outer.duration_s == pytest.approx(5.0)
        assert inner.duration_s == pytest.approx(3.0)
        assert outer.self_s == pytest.approx(2.0)
        assert inner.self_s == pytest.approx(3.0)

    def test_same_name_reentry_self_time(self, tracer, clock):
        with tracer.span("phase"):
            clock.advance(1.0)
            with tracer.span("phase"):
                clock.advance(2.0)
        inner, outer = tracer.spans
        # total self time across both equals wall time once, not twice
        assert inner.self_s + outer.self_s == pytest.approx(3.0)

    def test_exception_still_closes_span(self, tracer, clock):
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                clock.advance(1.0)
                raise RuntimeError
        (s,) = tracer.spans
        assert s.duration_s == pytest.approx(1.0)

    def test_set_attrs_during_span(self, tracer, clock):
        with tracer.span("load") as sp:
            clock.advance(1.0)
            sp.set_attrs(rows=42, cache_hit=True)
        (s,) = tracer.spans
        assert s.attrs == {"rows": 42, "cache_hit": True}
        assert sp.duration_s == pytest.approx(1.0)

    def test_record_span_relative_and_absolute(self, tracer):
        rel = tracer.record_span("a", 5.0, 1.0)
        absolute = tracer.record_span("b", 107.0, 1.0, absolute=True)
        assert rel.start_s == pytest.approx(5.0)
        assert absolute.start_s == pytest.approx(7.0)  # origin was 100.0

    def test_record_span_negative_duration_rejected(self, tracer):
        with pytest.raises(ValueError):
            tracer.record_span("x", 0.0, -1.0)

    def test_explicit_rank(self, tracer, clock):
        with tracer.span("load", rank=3):
            clock.advance(1.0)
        assert tracer.spans[0].rank == 3

    def test_queries(self, tracer, clock):
        with tracer.span("a"):
            clock.advance(1.0)
        with tracer.span("b"):
            clock.advance(2.0)
        assert len(tracer) == 2
        assert [s.name for s in tracer.spans_named("b")] == ["b"]
        assert [s.name for s in tracer.top_level_spans()] == ["a", "b"]
        lo, hi = tracer.extent()
        assert lo == pytest.approx(0.0)
        assert hi == pytest.approx(3.0)


class TestCounters:
    def test_accumulation(self, tracer):
        tracer.counter("hits")
        tracer.counter("hits", 2.0)
        tracer.counter("bytes", 100.0, source="cache")
        totals = tracer.counters()
        assert totals["hits"] == pytest.approx(3.0)
        assert totals["bytes"] == pytest.approx(100.0)
        events = tracer.counter_events
        assert events[1].total == pytest.approx(3.0)
        assert events[2].attrs == {"source": "cache"}


class TestThreadSafety:
    def test_concurrent_rank_threads(self, tracer, clock):
        errors = []

        def rank_worker(r):
            try:
                for i in range(100):
                    with tracer.span("step", rank=r, i=i):
                        with tracer.span("inner", rank=r):
                            pass
                    tracer.counter("steps", rank=r)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=rank_worker, args=(r,)) for r in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(tracer) == 800
        assert tracer.counters()["steps"] == pytest.approx(400.0)
        # nesting stayed per-thread: every inner has a step parent
        by_id = {s.span_id: s for s in tracer.spans}
        for s in tracer.spans:
            if s.name == "inner":
                assert by_id[s.parent_id].name == "step"
                assert by_id[s.parent_id].rank == s.rank


class TestInterop:
    def test_default_rank_inside_hvd(self):
        from repro import hvd

        tracer = Tracer()
        hvd.init()
        try:
            with tracer.span("load"):
                pass
        finally:
            hvd.shutdown()
        assert tracer.spans[0].rank == 0

    def test_default_rank_follows_each_rank_thread(self):
        from repro import hvd
        from repro.mpi import run_spmd

        tracer = Tracer()

        def worker(comm):
            hvd.init(comm)
            try:
                with tracer.span("load"):
                    pass
            finally:
                hvd.shutdown()
            with tracer.span("after"):  # outside any rank context
                pass

        run_spmd(2, worker)
        assert sorted(s.rank for s in tracer.spans_named("load")) == [0, 1]
        assert [s.rank for s in tracer.spans_named("after")] == [0, 0]

    def test_span_frozen(self, tracer, clock):
        with tracer.span("a"):
            clock.advance(1.0)
        with pytest.raises(AttributeError):
            tracer.spans[0].name = "b"
        assert isinstance(tracer.spans[0], Span)
