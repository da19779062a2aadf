"""Timeline analysis: the broadcast/allreduce overheads of Figs 7b/12/19.

The paper reads its headline broadcast-overhead numbers (43.72 s →
4.65 s on 384 GPUs; 37.65 s → 5.3 s on 768) off Horovod Chrome traces.
These helpers compute the same quantities from the timeline spans of a
:class:`repro.telemetry.Tracer`, whether it recorded a functional run,
a simulated one, or was read back from disk by
:func:`repro.telemetry.read_chrome_trace`.
"""

from __future__ import annotations

from typing import Dict

from repro.hvd.ops import ALLREDUCE_EVENTS, BROADCAST_EVENTS
from repro.telemetry import Tracer

__all__ = [
    "broadcast_overhead_seconds",
    "communication_summary",
]


def broadcast_overhead_seconds(tracer: Tracer) -> float:
    """Wall-clock span of the initial broadcast (negotiate → done).

    Measured as the paper does: from the first rank entering
    negotiate_broadcast to the last rank finishing the broadcast data
    movement. Dominated by data-loading skew in the original runs.
    """
    spans = tracer.spans_named(*BROADCAST_EVENTS)
    if not spans:
        return 0.0
    return max(s.end_s for s in spans) - min(s.start_s for s in spans)


def communication_summary(tracer: Tracer) -> Dict[str, float]:
    """Per-event-type total seconds and counts across all ranks."""
    out: Dict[str, float] = {}
    for s in tracer.spans_named(*BROADCAST_EVENTS, *ALLREDUCE_EVENTS):
        out[f"{s.name}_s"] = out.get(f"{s.name}_s", 0.0) + s.duration_s
        out[f"{s.name}_n"] = out.get(f"{s.name}_n", 0) + 1
    return out
