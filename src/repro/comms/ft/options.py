"""`FaultToleranceOptions`: the one knob of the fault-tolerant collectives.

Rides on :class:`repro.comms.CollectiveOptions` (its ``fault_tolerance``
field), so the same object that picks the transport algorithm also says
how that transport survives faults — and it threads unchanged from
``DistributedOptimizer`` / ``run_parallel_benchmark`` down to the
rank-local :class:`~repro.comms.ft.engine.FaultTolerantEngine`.

The defaults are tuned for the functional SPMD runtime (ranks are
threads, messages are queue hops): heartbeats every 250 ms, a chunk
deadline of 1 s before the first retransmission request, and a
phi-accrual detector that declares death around ``phi_dead``. The
simulator prices the same parameters analytically
(:func:`repro.sim.faultmodel.ft_detection_seconds`), so a paper-scale
projection and a functional run share one failure-handling config.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comms.ft.detector import PHI_SUSPECT
from repro.options import (
    FrozenOptions,
    require_non_negative,
    require_positive,
)

__all__ = ["FaultToleranceOptions", "DEFAULT_FT_OPTIONS", "DEMOTION_LADDER"]

#: schedule demotion order under degradation; each entry falls back to
#: the next when a rail/peer is degraded (``flat`` is engine-executed as
#: a single-chunk ring, bit-identical to the reference flat allreduce)
DEMOTION_LADDER = ("hierarchical", "ring", "flat")


@dataclass(frozen=True, kw_only=True)
class FaultToleranceOptions(FrozenOptions):
    """Keyword-only, frozen configuration of the FT collective runtime.

    ``CollectiveOptions(fault_tolerance=None)`` is the plain engine; any
    instance arms the FT engine. The detector's other parameters, the
    backoff's growth and cap, and the idle deadline are constants of
    :mod:`repro.comms.ft.detector` and :mod:`repro.comms.ft.channel`;
    the rebuild deadline is
    :func:`~repro.comms.ft.rebuild.rebuild_communicator`'s default.
    """

    # -- failure detector ---------------------------------------------------
    #: heartbeat period of the per-rank service thread — the cadence
    #: real accrual detectors run at (Cassandra/Akka beat at 0.1–1 s);
    #: beating much faster taxes the data plane it is meant to protect
    heartbeat_interval_s: float = 0.25
    #: phi at which a peer is declared *dead* (rebuild trigger)
    phi_dead: float = 8.0

    # -- reliable chunk transport ------------------------------------------
    #: per-chunk recv deadline before a retransmission is requested.
    #: Generous on purpose: a large fused bucket legitimately takes
    #: hundreds of ms to reduce on a loaded host, and a too-eager NACK
    #: turns congestion into retransmit storms (real stall detectors
    #: are lax for the same reason — Horovod warns at 60 s). Dead-rank
    #: detection does not ride on this; the phi detector owns that.
    chunk_deadline_s: float = 1.0
    #: retransmission requests per message before the chunk fails
    max_retransmits: int = 3
    #: CRC-verify every data envelope on the wire. Off by default: the
    #: transports underneath (in-process queues here; IB/NCCL links in
    #: production) already carry link-layer integrity, and software CRC
    #: costs per byte on the critical path. Turn on for chaos testing
    #: or genuinely unreliable transports — ``msg_corrupt`` injection
    #: is only caught while this is enabled.
    checksum: bool = False
    #: first delay of the capped exponential backoff between
    #: retransmission requests
    retry_base_delay_s: float = 0.002

    # -- degradation & recovery --------------------------------------------
    #: allow mid-collective demotion after retransmit exhaustion
    allow_demotion: bool = True
    #: allow the elastic communicator rebuild on confirmed rank death
    allow_rebuild: bool = True
    #: a killed rank broadcasts a death notice before dying (fast path;
    #: pure-silence death is still caught by the phi detector)
    death_notice: bool = True

    def __post_init__(self):
        require_positive("heartbeat_interval_s", self.heartbeat_interval_s)
        if self.phi_dead <= PHI_SUSPECT:
            raise ValueError(
                f"phi_dead must exceed phi_suspect ({PHI_SUSPECT}), "
                f"got {self.phi_dead}"
            )
        require_positive("chunk_deadline_s", self.chunk_deadline_s)
        require_non_negative("max_retransmits", self.max_retransmits)
        require_non_negative("retry_base_delay_s", self.retry_base_delay_s)


#: FT defaults: detection + retry + demotion + rebuild all armed
DEFAULT_FT_OPTIONS = FaultToleranceOptions()
