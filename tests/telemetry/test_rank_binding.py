"""A span's default rank is the rank thread's bound rank, rebuilds included.

:func:`repro.hvd.init` binds the calling thread's rank and tracer in
:mod:`repro.telemetry.runtime`; an elastic rebuild renumbers the
survivors, and the binding must follow so that spans opened afterwards
carry the same rank as ``hvd.rank()``.
"""

import numpy as np

from repro import hvd
from repro.comms import CollectiveOptions
from repro.comms.ft import FaultToleranceOptions
from repro.mpi import run_spmd
from repro.resilience import FaultInjector, FaultPlan
from repro.telemetry import Tracer
from repro.telemetry import runtime

FTO = FaultToleranceOptions(
    heartbeat_interval_s=0.005,
    chunk_deadline_s=0.1,
    retry_base_delay_s=0.001,
    checksum=True,
)


def test_span_rank_follows_an_elastic_rebuild():
    world, victim = 3, 1
    opts = CollectiveOptions(algorithm="ring", fault_tolerance=FTO)
    tracer = Tracer()

    def worker(comm):
        hvd.init(comm, tracer=tracer, options=opts)
        try:
            before = hvd.rank()
            hvd.allreduce(np.full(64, float(comm.rank)), name="g")
            with tracer.span("after_rebuild") as sp:
                pass
            return before, hvd.rank(), sp.rank, runtime.thread_tracer() is tracer
        finally:
            hvd.shutdown()

    plan = FaultPlan.single_message_fault("rank_kill", rank=victim, message=1)
    results = run_spmd(world, worker, fault_injector=FaultInjector(plan))
    assert results[victim] is None
    # the survivor above the victim is renumbered, and its spans follow
    assert results[2][:3] == (2, 1, 1)
    assert results[0][:3] == (0, 0, 0)
    assert all(r[3] for r in results if r is not None)
    assert sorted(s.rank for s in tracer.spans_named("after_rebuild")) == [0, 1]


def test_binding_is_cleared_at_shutdown():
    tracer = Tracer()
    hvd.init(tracer=tracer)
    assert runtime.thread_tracer() is tracer
    hvd.shutdown()
    assert runtime.thread_tracer() is runtime.active_tracer() is not tracer
