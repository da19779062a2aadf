"""repro.resilience — fault injection, checkpoint/restart, elastic recovery.

The paper's §7 names checkpoint/restart for the Horovod benchmarks as
future work; this package is that work, grown into a subsystem:

- :mod:`repro.resilience.faults` — a deterministic, seedable fault
  schedule (:class:`FaultPlan`) and its runtime (:class:`FaultInjector`)
  that plugs into :func:`repro.mpi.run_spmd` (per-rank start hooks) and
  :class:`repro.hvd.FaultInjectionCallback` (epoch/step faults during
  real training). The simulator side — an MTBF failure process for
  paper-scale runs — lives in :mod:`repro.sim.faultmodel`.
- :mod:`repro.resilience.checkpoint` — :class:`CheckpointManager`:
  atomic writes, SHA-256-verified loads, last-N retention, and the
  rank-0-writes / broadcast-restore distributed protocol.
- :mod:`repro.resilience.recovery` —
  :func:`run_resilient_benchmark`: capped-exponential-backoff retries,
  resume from the newest valid checkpoint (bit-exact with a fixed
  shuffle order), and graceful degradation to a smaller world when a
  rank is permanently dead, with the learning rate and epoch partition
  re-derived from the paper's scaling rules.

:class:`RetryPolicy`, :class:`TransientCollectiveError` and its base
:class:`InjectedFault` live in :mod:`repro.comms.ft.channel`, the lowest
layer that uses them; they are re-exported here.
"""

from repro.comms.ft.channel import InjectedFault, RetryPolicy, TransientCollectiveError
from repro.resilience.checkpoint import CheckpointInfo, CheckpointManager
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
)
from repro.resilience.recovery import (
    AttemptRecord,
    ResilientRunResult,
    replan_for_world,
    run_resilient_benchmark,
)

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "InjectedCrash",
    "TransientCollectiveError",
    "CheckpointManager",
    "CheckpointInfo",
    "RetryPolicy",
    "AttemptRecord",
    "ResilientRunResult",
    "replan_for_world",
    "run_resilient_benchmark",
]
