"""The benchmark's own in-memory span recorder.

The traced pass wraps every call it makes into a layer's public function
in a span: name (``<layer>.<operation>``), start, end, the span that
caused it, and the run id all spans of one run share. Spans stay in
memory until the run ends and are then written out as a Chrome trace.

A span's *self time* is its duration minus the part of that interval its
child spans cover, so time is attributed to the innermost layer that was
on the stack. Nothing here imports the program under test.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = ["Span", "SpanRecorder", "span_cost_s"]


@dataclass
class Span:
    index: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str
    tid: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class SpanRecorder:
    """Collects spans; the parent of a new span is the innermost span
    still open on the same thread, or ``parent`` for the first span of a
    thread that another thread's span started (an SPMD rank)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._open = threading.local()

    def begin(self, name: str, parent: Optional[int] = None) -> int:
        stack = self._open.__dict__.setdefault("stack", [])
        with self._lock:
            span = Span(
                index=len(self.spans),
                name=name,
                start=0.0,
                end=0.0,
                parent=stack[-1] if stack else parent,
                run_id=self.run_id,
                tid=threading.get_ident(),
            )
            self.spans.append(span)
        stack.append(span.index)
        span.start = time.perf_counter()
        return span.index

    def end(self, index: int) -> Span:
        now = time.perf_counter()
        span = self.spans[index]
        span.end = now
        stack = self._open.stack
        if stack.pop() != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        return span

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None) -> Iterator[Span]:
        index = self.begin(name, parent)
        try:
            yield self.spans[index]
        finally:
            self.end(index)

    # -- analysis ------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Self time of every span, index-aligned with ``self.spans``."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        out = []
        for index, span in enumerate(self.spans):
            covered, edge = 0.0, span.start
            for start, end in sorted(children.get(index, ())):
                start, end = max(start, edge), min(end, span.end)
                if end > start:
                    covered += end - start
                    edge = end
            out.append(span.duration - covered)
        return out

    def descendants(self, root: int) -> list[int]:
        """Indices of ``root`` and every span below it."""
        keep = {root}
        for index, span in enumerate(self.spans):  # parents precede children
            if span.parent in keep:
                keep.add(index)
        return sorted(keep)

    def layer_self_seconds(self, root: int) -> dict[str, float]:
        """Self time per layer over the subtree of ``root``; sums to the
        root's duration."""
        self_s = self.self_times()
        out: dict[str, float] = {}
        for index in self.descendants(root):
            layer = self.spans[index].layer
            out[layer] = out.get(layer, 0.0) + self_s[index]
        return out

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    # -- export --------------------------------------------------------------
    def chrome_trace(self) -> dict:
        """``chrome://tracing`` / Perfetto JSON: one complete ("X") event
        per span, microseconds from the first span's start."""
        origin = min((s.start for s in self.spans), default=0.0)
        tids = {tid: i for i, tid in enumerate(dict.fromkeys(s.tid for s in self.spans))}
        self_s = self.self_times()
        events = [
            {
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 0,
                "tid": tids[span.tid],
                "args": {
                    "id": index,
                    "parent": span.parent,
                    "run_id": span.run_id,
                    "self_us": self_s[index] * 1e6,
                },
            }
            for index, span in enumerate(self.spans)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms", "run_id": self.run_id}


def span_cost_s(pairs: int = 20000) -> float:
    """Measured cost of one begin/end pair on this machine, from a
    throw-away recorder (the basis of the tracing-overhead figure)."""
    probe = SpanRecorder("probe")
    t0 = time.perf_counter()
    for _ in range(pairs):
        probe.end(probe.begin("probe.empty"))
    return (time.perf_counter() - t0) / pairs
