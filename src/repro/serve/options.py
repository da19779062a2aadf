"""`ServeOptions`: the one public knob of the serving subsystem.

Same contract as the rest of the options family
(:class:`repro.train.TrainOptions`,
:class:`repro.comms.CollectiveOptions`, ...): every serving knob lives
in one keyword-only frozen dataclass, validated at construction, copied
with :meth:`~repro.options.FrozenOptions.evolve`, and threaded
*unchanged* from the entry point (:func:`repro.serve.serve_workload`,
the ``serve=`` phase of :func:`repro.candle.run_benchmark`) through the
front-end, the dynamic batcher, and the replica plane — and across to
the analytical cost model (:class:`repro.sim.ServeModel`), so a
functional serving run and its projection price the same configuration.

The central tension the knobs express is **latency vs throughput**:
a larger ``max_batch`` amortizes per-batch overhead (more rows/s), but
rows wait longer for the batch to fill; ``deadline_ms`` caps that wait
per request, and ``assemble_fraction`` says how much of the deadline
the batcher may spend assembling before it must flush what it has.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.options import (
    FrozenOptions,
    require_choice,
    require_in_interval,
    require_non_negative,
    require_positive,
)

__all__ = ["ServeOptions", "DEFAULT_SERVE_OPTIONS", "ADMISSION_POLICIES"]

#: what the front-end does with an arrival when the queue is full:
#: "block" applies backpressure (the submitter waits for space),
#: "reject" refuses the new request immediately (load shedding at the
#: door), "shed_oldest" drops the stalest queued request to admit the
#: new one (freshest-first under overload)
ADMISSION_POLICIES = ("block", "reject", "shed_oldest")


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
    #: fraction of ``deadline_ms`` the batcher may spend waiting for a
    #: batch to fill before flushing a partial one; the rest of the
    #: budget is left for queueing, transport, and compute
    assemble_fraction: float = 0.5
    #: seed of the serving run's RNG streams (load generation, shedding
    #: tie-breaks) — fixed seed, reproducible run
    seed: int = 0

    def __post_init__(self):
        require_positive("max_batch", self.max_batch)
        require_positive("deadline_ms", self.deadline_ms)
        require_positive("queue_depth", self.queue_depth)
        require_positive("replicas", self.replicas)
        require_choice("admission", self.admission, ADMISSION_POLICIES)
        require_in_interval(
            "assemble_fraction", self.assemble_fraction, 0, 1, open_low=True
        )
        require_non_negative("seed", self.seed)

    # -- derived quantities -------------------------------------------------
    @property
    def deadline_s(self) -> float:
        """The per-request deadline in seconds."""
        return self.deadline_ms / 1000.0

    @property
    def assemble_budget_s(self) -> float:
        """Seconds the batcher may hold a request while assembling."""
        return self.deadline_s * self.assemble_fraction


#: interactive defaults — 32-row batches, 50 ms deadline, two replicas
DEFAULT_SERVE_OPTIONS = ServeOptions()
