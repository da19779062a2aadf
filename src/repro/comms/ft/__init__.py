"""Fault-tolerant collectives: detection, retry, demotion, rebuild.

Layered on the PR 5 :class:`~repro.comms.engine.CollectiveEngine`:

- :mod:`repro.comms.ft.options` — :class:`FaultToleranceOptions`, the
  frozen keyword-only knob threaded through ``CollectiveOptions``.
- :mod:`repro.comms.ft.detector` — phi-accrual heartbeat failure
  detection (healthy / suspect / dead).
- :mod:`repro.comms.ft.channel` — reliable enveloped transport with
  checksums, deadlines, NACK retransmission (:class:`RetryPolicy`
  backoff), restart signalling, and :class:`TransientCollectiveError`.
- :mod:`repro.comms.ft.rebuild` — the JOIN/COMMIT survivor consensus
  that rebuilds the communicator around dead ranks.
- :mod:`repro.comms.ft.engine` — :class:`FaultTolerantEngine`, the
  recovery loop tying them together.
"""

from repro.comms.ft.channel import (
    CollectiveRestart,
    FtChannel,
    InjectedFault,
    PeerDeadError,
    RankKilledError,
    RetryPolicy,
    TransientCollectiveError,
    payload_checksum,
)
from repro.comms.ft.detector import (
    PEER_DEAD,
    PEER_HEALTHY,
    PEER_SUSPECT,
    PhiAccrualDetector,
)
from repro.comms.ft.engine import FaultTolerantEngine, RebuildRecord
from repro.comms.ft.options import (
    DEFAULT_FT_OPTIONS,
    DEMOTION_LADDER,
    FaultToleranceOptions,
)
from repro.comms.ft.rebuild import RebuildResult, rebuild_communicator

__all__ = [
    "FaultToleranceOptions",
    "DEFAULT_FT_OPTIONS",
    "DEMOTION_LADDER",
    "PhiAccrualDetector",
    "PEER_HEALTHY",
    "PEER_SUSPECT",
    "PEER_DEAD",
    "FtChannel",
    "CollectiveRestart",
    "PeerDeadError",
    "RankKilledError",
    "InjectedFault",
    "TransientCollectiveError",
    "RetryPolicy",
    "payload_checksum",
    "RebuildResult",
    "rebuild_communicator",
    "FaultTolerantEngine",
    "RebuildRecord",
]
