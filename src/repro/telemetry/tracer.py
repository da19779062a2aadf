"""The per-run tracer: nestable spans + counters on one monotonic clock.

A :class:`Tracer` is the single event log for one run. Spans nest
through a per-thread stack (each SPMD rank is a thread, so rank
concurrency needs no coordination beyond the append lock), carry
free-form attributes, and know their *self time* — duration minus the
time spent in child spans — which is what keeps nested re-entry of the
same phase name from double-counting in summaries.

Timestamps are monotonic (``time.perf_counter``) and stored relative to
the tracer's origin, so a profile built on the same run (phases start
at ~0) lines up with the spans and energy attribution is a pure
interval query.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.telemetry import runtime
from repro.telemetry.power import PowerBinding

__all__ = ["Span", "Counter", "Tracer"]


@dataclass(frozen=True)
class Span:
    """One completed span."""

    name: str
    category: str
    rank: int
    start_s: float
    duration_s: float
    span_id: int
    parent_id: Optional[int] = None
    self_s: Optional[float] = None
    attrs: dict = field(default_factory=dict)

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    @property
    def exclusive_s(self) -> float:
        """Self time (duration minus child spans; duration if unknown)."""
        return self.duration_s if self.self_s is None else self.self_s


@dataclass(frozen=True)
class Counter:
    """One counter increment (monotonic within a run)."""

    name: str
    time_s: float
    value: float
    total: float
    rank: int
    attrs: dict = field(default_factory=dict)


class _OpenSpan:
    """A span in flight; returned by :meth:`Tracer.span` for attr updates."""

    __slots__ = (
        "name", "category", "rank", "span_id", "parent_id",
        "start_s", "attrs", "child_s", "duration_s",
    )

    def __init__(self, name, category, rank, span_id, parent_id, start_s, attrs):
        self.name = name
        self.category = category
        self.rank = rank
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_s = start_s
        self.attrs = attrs
        self.child_s = 0.0
        self.duration_s: Optional[float] = None  # set at close

    def set_attrs(self, **attrs) -> None:
        """Attach attributes to the span before (or as) it closes."""
        self.attrs.update(attrs)


class Tracer:
    """Thread-safe, append-only span/counter log for one run."""

    def __init__(
        self,
        run_id: str = "run",
        clock: Callable[[], float] = time.perf_counter,
        origin_s: Optional[float] = None,
    ):
        self.run_id = run_id
        self._clock = clock
        self.origin_s = clock() if origin_s is None else float(origin_s)
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._counter_events: list[Counter] = []
        self._counter_totals: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self.power_binding = None  # set by PowerBinding.bind / bind_power

    # -- clock -------------------------------------------------------------
    def now(self) -> float:
        """Seconds since the tracer's origin (monotonic)."""
        return self._clock() - self.origin_s

    # -- spans -------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextmanager
    def span(
        self,
        name: str,
        category: str = "phase",
        rank: Optional[int] = None,
        **attrs,
    ) -> Iterator[_OpenSpan]:
        """Time a nested span; yields the open span for attr updates."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = _OpenSpan(
            name=name,
            category=category,
            rank=runtime.thread_rank() if rank is None else int(rank),
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            start_s=self.now(),
            attrs=dict(attrs),
        )
        stack.append(frame)
        try:
            yield frame
        finally:
            end = self.now()
            stack.pop()
            frame.duration_s = end - frame.start_s
            if parent is not None:
                parent.child_s += frame.duration_s
            completed = Span(
                name=frame.name,
                category=frame.category,
                rank=frame.rank,
                start_s=frame.start_s,
                duration_s=frame.duration_s,
                span_id=frame.span_id,
                parent_id=frame.parent_id,
                self_s=max(0.0, frame.duration_s - frame.child_s),
                attrs=frame.attrs,
            )
            with self._lock:
                self._spans.append(completed)

    def record_span(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        category: str = "phase",
        rank: Optional[int] = None,
        absolute: bool = False,
        **attrs,
    ) -> Span:
        """Append an already-timed span (collectives, simulator phases).

        ``absolute=True`` marks ``start_s`` as a raw monotonic-clock
        reading to be shifted onto the tracer's origin; the default
        treats it as already origin-relative (the simulator's time
        base).
        """
        if duration_s < 0:
            raise ValueError(f"negative duration {duration_s} for span {name!r}")
        completed = Span(
            name=name,
            category=category,
            rank=runtime.thread_rank() if rank is None else int(rank),
            start_s=start_s - self.origin_s if absolute else start_s,
            duration_s=duration_s,
            span_id=next(self._ids),
            parent_id=None,
            self_s=duration_s,
            attrs=dict(attrs),
        )
        with self._lock:
            self._spans.append(completed)
        return completed

    # -- counters ----------------------------------------------------------
    def counter(
        self, name: str, value: float = 1.0, rank: Optional[int] = None, **attrs
    ) -> Counter:
        """Add ``value`` to counter ``name``; records the increment."""
        with self._lock:
            total = self._counter_totals.get(name, 0.0) + float(value)
            self._counter_totals[name] = total
            event = Counter(
                name=name,
                time_s=self.now(),
                value=float(value),
                total=total,
                rank=runtime.thread_rank() if rank is None else int(rank),
                attrs=dict(attrs),
            )
            self._counter_events.append(event)
        return event

    # -- queries -----------------------------------------------------------
    @property
    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    @property
    def counter_events(self) -> list[Counter]:
        with self._lock:
            return list(self._counter_events)

    def counters(self) -> dict[str, float]:
        """Counter name → accumulated total."""
        with self._lock:
            return dict(self._counter_totals)

    def spans_named(self, *names: str) -> list[Span]:
        return [s for s in self.spans if s.name in names]

    def top_level_spans(self, rank: Optional[int] = None) -> list[Span]:
        """Parentless spans (optionally one rank's), ordered by start."""
        out = [
            s
            for s in self.spans
            if s.parent_id is None and (rank is None or s.rank == rank)
        ]
        return sorted(out, key=lambda s: s.start_s)

    def extent(self) -> tuple[float, float]:
        """(earliest start, latest end) across all spans."""
        spans = self.spans
        if not spans:
            return (0.0, 0.0)
        return (min(s.start_s for s in spans), max(s.end_s for s in spans))

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    # -- power -------------------------------------------------------------
    def bind_power(self, profile, rate_hz: float = 1.0, mode: str = "trapezoid"):
        """Attach a power profile; spans then report joules and watts.

        Returns the :class:`~repro.telemetry.power.PowerBinding` (also
        kept on ``self.power_binding`` for the exporters).
        """
        self.power_binding = PowerBinding(profile, rate_hz=rate_hz, mode=mode)
        return self.power_binding

    def span_energy(self, span: Span) -> Optional[tuple[float, float]]:
        """(joules, average watts) for a span; None when unbound."""
        if self.power_binding is None:
            return None
        return self.power_binding.attribute(span.start_s, span.end_s)
