"""`ServeOptions`: the one public knob of the serving subsystem.

Same contract as the rest of the options family
(:class:`repro.train.TrainOptions`,
:class:`repro.comms.CollectiveOptions`, ...): every serving knob lives
in one keyword-only frozen dataclass, validated at construction, copied
with :meth:`~repro.options.FrozenOptions.evolve`, and threaded
*unchanged* from the entry point (:func:`repro.serve.serve_workload`)
through the front-end, the dynamic batcher, and the replica plane.

The central tension the knobs express is **latency vs throughput**:
a larger ``max_batch`` amortizes per-batch overhead (more rows/s), but
rows wait longer for the batch to fill; ``deadline_ms`` caps that wait
per request, and the batcher may spend :data:`ASSEMBLE_FRACTION` of it
assembling before it must flush what it has.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.options import (
    FrozenOptions,
    require_choice,
    require_non_negative,
    require_positive,
)

__all__ = [
    "ServeOptions",
    "DEFAULT_SERVE_OPTIONS",
    "ADMISSION_POLICIES",
    "ASSEMBLE_FRACTION",
]

#: what the front-end does with an arrival when the queue is full:
#: "block" applies backpressure (the submitter waits for space),
#: "reject" refuses the new request immediately (load shedding at the
#: door)
ADMISSION_POLICIES = ("block", "reject")

#: fraction of ``deadline_ms`` the batcher may spend waiting for a batch
#: to fill before flushing a partial one; the rest of the budget is left
#: for queueing, transport, and compute
ASSEMBLE_FRACTION = 0.5


@dataclass(frozen=True, kw_only=True)
class ServeOptions(FrozenOptions):
    """Keyword-only configuration for every inference request in a run.

    The defaults serve interactively: small batches under a 50 ms
    deadline on two replicas — the regime where dynamic batching pays
    for itself without visibly delaying any single caller.
    """

    #: largest number of *rows* one assembled batch may carry; a single
    #: request larger than this still flushes (alone)
    max_batch: int = 32
    #: per-request latency deadline — the p99 target the batcher's
    #: assembly budget is derived from
    deadline_ms: float = 50.0
    #: bounded admission-queue depth (requests, not rows)
    queue_depth: int = 256
    #: inference worker replicas (SPMD ranks 1..replicas; rank 0 is the
    #: front-end)
    replicas: int = 2
    #: full-queue policy; see :data:`ADMISSION_POLICIES`
    admission: str = "block"
    #: the run's seed, carried with its configuration; the serving plane
    #: draws nothing from it (an arrival trace takes its own seed)
    seed: int = 0

    def __post_init__(self):
        require_positive("max_batch", self.max_batch)
        require_positive("deadline_ms", self.deadline_ms)
        require_positive("queue_depth", self.queue_depth)
        require_positive("replicas", self.replicas)
        require_choice("admission", self.admission, ADMISSION_POLICIES)
        require_non_negative("seed", self.seed)

    # -- derived quantities -------------------------------------------------
    @property
    def deadline_s(self) -> float:
        """The per-request deadline in seconds."""
        return self.deadline_ms / 1000.0

    @property
    def assemble_budget_s(self) -> float:
        """Seconds the batcher may hold a request while assembling."""
        return self.deadline_s * ASSEMBLE_FRACTION


#: interactive defaults — 32-row batches, 50 ms deadline, two replicas
DEFAULT_SERVE_OPTIONS = ServeOptions()
