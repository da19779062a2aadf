"""`CollectiveOptions`: the one public knob of the collective engine.

Before this module, tuning the collectives meant a different flag on
every layer: ``fusion_bytes`` on :class:`repro.hvd.DistributedOptimizer`,
positional ``op=``/``root=``/``name=`` on :mod:`repro.hvd.ops`, and
hard-coded algorithm choices inside the simulator. All of that collapses
into one keyword-only frozen dataclass that is threaded unchanged from
``DistributedOptimizer`` down to the rank-local engine and across to the
simulator's fabric cost model — so a functional run and a simulated run
of the same configuration execute (and charge) the same schedules.

Algorithm selection (``algorithm="auto"``) follows message size and
machine topology:

====================  =========================  ======================
condition             selected algorithm         rationale
====================  =========================  ======================
1 rank                flat                       nothing to reduce
multi-node, uniform   hierarchical               NVLink first, then the
nodes with >1 local                              fat-tree/dragonfly —
rank                                             cuts latency from O(p)
                                                 to O(p/local)
small message and     recursive halving-         ceil(log2 p) rounds
power-of-two world    doubling (rhd)             beat 2(p-1) for
                                                 latency-bound sizes
everything else       ring                       bandwidth-optimal
====================  =========================  ======================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.comms.ft.options import FaultToleranceOptions
from repro.options import (
    FrozenOptions,
    require_choice,
    require_instance,
    require_positive,
)

__all__ = [
    "CollectiveOptions",
    "DEFAULT_OPTIONS",
    "ALGORITHMS",
    "SMALL_MESSAGE_BYTES",
    "select_algorithm",
]

#: supported transport algorithms ("auto" resolves to one of the others)
ALGORITHMS = ("auto", "flat", "ring", "rhd", "hierarchical")

#: at or below this size, latency dominates and "auto" prefers rhd
SMALL_MESSAGE_BYTES = 16 << 10


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True, kw_only=True)
class CollectiveOptions(FrozenOptions):
    """Keyword-only configuration for every collective in a run.

    The defaults reproduce the engine's automatic behaviour, which is
    itself calibrated to match the pre-engine flat path bit-for-bit (see
    the numerics contract in :mod:`repro.comms.engine`).
    """

    #: transport algorithm; "auto" selects by size and topology
    algorithm: str = "auto"
    #: fusion-buffer capacity consumed per fused allreduce (Horovod's 64 MB)
    fusion_bytes: int = 64 << 20
    #: pipelined chunk size for one fused reduction; None = single chunk
    chunk_bytes: Optional[int] = None
    #: fault-tolerant execution (heartbeat detection, retransmission,
    #: demotion, elastic rebuild); None = the plain PR 5 engine
    fault_tolerance: Optional[FaultToleranceOptions] = None
    #: machine name ("summit", "theta") whose fabric model prices each
    #: executed chunk; the engine then *sleeps* the priced wire time, so
    #: the in-process threaded runtime — whose real messages are shared
    #: memory, essentially free — exhibits the communication latency of
    #: that machine. This is what makes compute/communication overlap
    #: measurable functionally; None (default) adds no delay.
    emulate_fabric: Optional[str] = None
    #: dilation applied to the emulated wire time. The threaded runtime
    #: executes a benchmark's math orders of magnitude slower than the
    #: modeled accelerator, so fabric-priced seconds are invisible next
    #: to emulated compute; multiplying them by the same dilation factor
    #: as the compute (measured step seconds / modeled step seconds)
    #: restores the machine's comm-to-compute ratio in the emulation.
    emulate_fabric_scale: float = 1.0

    def __post_init__(self):
        require_choice("algorithm", self.algorithm, ALGORITHMS)
        require_positive("fusion_bytes", self.fusion_bytes)
        if self.chunk_bytes is not None and self.chunk_bytes <= 0:
            raise ValueError(
                f"chunk_bytes must be positive or None, got {self.chunk_bytes}"
            )
        require_instance(
            "fault_tolerance", self.fault_tolerance, FaultToleranceOptions
        )
        if self.emulate_fabric is not None and not isinstance(
            self.emulate_fabric, str
        ):
            raise ValueError(
                "emulate_fabric must be a machine name or None, "
                f"got {type(self.emulate_fabric).__name__}"
            )
        require_positive("emulate_fabric_scale", self.emulate_fabric_scale)

    # -- derived quantities -------------------------------------------------
    def nchunks(self, nbytes: int) -> int:
        """Pipelined chunk count for an ``nbytes`` fused buffer."""
        if self.chunk_bytes is None or nbytes <= 0:
            return 1
        return max(1, -(-nbytes // self.chunk_bytes))


#: the engine's defaults — automatic selection
DEFAULT_OPTIONS = CollectiveOptions()


def select_algorithm(nbytes: int, topology, options: CollectiveOptions) -> str:
    """Resolve the transport algorithm for one message on one topology.

    Explicit (non-"auto") choices are honoured but demoted when
    infeasible: rhd needs a power-of-two world, hierarchical needs more
    than one uniform node with more than one local rank. The demotion
    target is always ring, which works on any topology.
    """
    algo = options.algorithm
    if algo == "auto":
        if topology.world <= 1:
            algo = "flat"
        elif (
            topology.nnodes > 1 and topology.local_size > 1 and topology.uniform
        ):
            algo = "hierarchical"
        elif nbytes <= SMALL_MESSAGE_BYTES and _is_power_of_two(
            topology.world
        ):
            algo = "rhd"
        else:
            algo = "ring"
    if algo == "rhd" and not _is_power_of_two(topology.world):
        algo = "ring"
    if algo == "hierarchical" and not (
        topology.nnodes > 1 and topology.local_size > 1 and topology.uniform
    ):
        algo = "ring"
    return algo
