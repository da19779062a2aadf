"""Collective schedules: algorithms as inspectable plans.

A collective is *planned* before it is executed: the planner turns
(message size, topology, :class:`~repro.comms.options.CollectiveOptions`)
into a :class:`CollectiveSchedule` — an ordered tuple of
:class:`PlanStep` phases, each carrying its link level (intra-node
NVLink/PCIe vs inter-node fat-tree/dragonfly), its latency-bearing round
count, and its bytes on the wire. The same schedule object serves three
consumers:

- the rank-local engine (:mod:`repro.comms.engine`) executes it,
- the simulator and the ablations price it on a
  :class:`~repro.mpi.network.FabricSpec` via
  :meth:`CollectiveSchedule.seconds` (alpha-beta-gamma accounting,
  pipelined over chunks), so simulated Summit/Theta runs reflect the
  algorithm choice,
- golden tests assert the exact step structure per topology.

This is the repo's only collective pricer: a time is the schedule the
engine runs, priced step by step. One chunk of a ring costs the
textbook ``2 (p-1) alpha + 2 n beta (p-1)/p + gamma n (p-1)/p``; a
hierarchical allreduce charges its inter stage the *full* buffer (the
per-local-index slice rings share each node's one NIC); a broadcast is
binomial trees, across nodes and then within them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.comms.options import (
    DEFAULT_OPTIONS,
    CollectiveOptions,
    select_algorithm,
)
from repro.comms.topology import Topology

__all__ = [
    "PlanStep",
    "CollectiveSchedule",
    "plan_allreduce",
    "plan_broadcast",
]


@dataclass(frozen=True)
class PlanStep:
    """One phase of a collective schedule (for a single chunk).

    ``wire_bytes`` is the total traffic one rank pushes through the
    phase's bounding link; ``reduce_bytes`` the bytes it combines
    arithmetically (charged at the fabric's gamma rate).
    """

    phase: str  #: e.g. "reduce_scatter", "allgather", "halving", "tree"
    level: str  #: "intra" (NVLink/PCIe) or "inter" (fat-tree/dragonfly)
    rounds: int  #: latency-bearing message rounds
    wire_bytes: float
    reduce_bytes: float = 0.0

    def __post_init__(self):
        if self.level not in ("intra", "inter"):
            raise ValueError(f"level must be intra|inter, got {self.level!r}")
        if self.rounds < 0 or self.wire_bytes < 0 or self.reduce_bytes < 0:
            raise ValueError("rounds and byte counts must be non-negative")

    def seconds(self, fabric) -> float:
        """Alpha-beta-gamma time of this step on one fabric."""
        alpha, beta = fabric.link(self.level == "inter")
        return (
            self.rounds * alpha
            + self.wire_bytes * beta
            + self.reduce_bytes * fabric.reduce_gamma_s_per_b
        )


@dataclass(frozen=True)
class CollectiveSchedule:
    """A planned collective: per-chunk steps plus chunking metadata."""

    collective: str  #: "allreduce" | "broadcast"
    algorithm: str  #: resolved algorithm (never "auto")
    nbytes: int  #: total payload bytes
    topology: Topology
    nchunks: int
    chunk_bytes: int  #: bytes of one chunk (last may be short)
    steps: Tuple[PlanStep, ...]

    def seconds(self, fabric) -> float:
        """Schedule time on a fabric, pipelined across chunks.

        Chunks stream through the step stages: the first chunk pays the
        full pipeline fill, each later chunk only the slowest stage —
        the standard fill + (n-1) x bottleneck pipeline bound.
        """
        per_step = [s.seconds(fabric) for s in self.steps]
        if not per_step:
            return 0.0
        fill = sum(per_step)
        bottleneck = max(per_step)
        return fill + (self.nchunks - 1) * bottleneck

    def wire_bytes(self) -> float:
        """Total bytes one rank moves executing the whole schedule."""
        return self.nchunks * sum(s.wire_bytes for s in self.steps)

    def describe(self) -> list:
        """Rows for golden tests and benchmark reports."""
        return [
            {
                "phase": s.phase,
                "level": s.level,
                "rounds": s.rounds,
                "wire_bytes": round(s.wire_bytes, 1),
            }
            for s in self.steps
        ]


def _allreduce_steps(
    chunk: float, topo: Topology, algorithm: str
) -> Tuple[PlanStep, ...]:
    """Per-chunk allreduce phases for one resolved algorithm."""
    p = topo.world
    if p <= 1:
        return ()
    spans = "inter" if topo.nnodes > 1 else "intra"
    frac = (p - 1) / p
    if algorithm in ("flat", "ring"):
        return (
            PlanStep("reduce_scatter", spans, p - 1, chunk * frac, chunk * frac),
            PlanStep("allgather", spans, p - 1, chunk * frac),
        )
    if algorithm == "rhd":
        rounds = math.ceil(math.log2(p))
        return (
            PlanStep("halving", spans, rounds, chunk * frac, chunk * frac),
            PlanStep("doubling", spans, rounds, chunk * frac),
        )
    if algorithm == "hierarchical":
        l, n = topo.local_size, topo.nnodes
        lfrac = (l - 1) / l
        nfrac = (n - 1) / n
        # the l per-local-index slice rings share one NIC per node, so the
        # inter stage charges the full chunk, not chunk/l
        return (
            PlanStep("reduce_scatter", "intra", l - 1, chunk * lfrac, chunk * lfrac),
            PlanStep("inter_ring", "inter", 2 * (n - 1), 2 * chunk * nfrac, chunk * nfrac),
            PlanStep("allgather", "intra", l - 1, chunk * lfrac),
        )
    raise ValueError(f"unplannable algorithm {algorithm!r}")


def plan_allreduce(
    nbytes: int,
    topology: Topology,
    options: CollectiveOptions = DEFAULT_OPTIONS,
) -> CollectiveSchedule:
    """Plan one allreduce of ``nbytes`` on ``topology`` under ``options``.

    A ``flat`` allreduce is the ring in one chunk, whatever
    ``chunk_bytes`` asks for.
    """
    if nbytes < 0:
        raise ValueError(f"nbytes must be non-negative, got {nbytes}")
    algorithm = select_algorithm(nbytes, topology, options)
    nchunks = 1 if algorithm == "flat" else options.nchunks(nbytes)
    chunk = nbytes / nchunks if nchunks else float(nbytes)
    steps = _allreduce_steps(chunk, topology, algorithm)
    return CollectiveSchedule(
        "allreduce", algorithm, nbytes, topology,
        nchunks, int(math.ceil(chunk)) if nbytes else 0, steps,
    )


def plan_broadcast(
    nbytes: int,
    topology: Topology,
    options: CollectiveOptions = DEFAULT_OPTIONS,
) -> CollectiveSchedule:
    """Plan one broadcast: binomial trees, node-level first.

    Automatic selection always uses the two-level decomposition (it
    degenerates to a single tree on one node); ``algorithm="flat"``
    forces one tree over the bounding link.
    """
    if nbytes < 0:
        raise ValueError(f"nbytes must be non-negative, got {nbytes}")
    p = topology.world
    steps: Tuple[PlanStep, ...] = ()
    if p > 1 and options.algorithm == "flat":
        spans = "inter" if topology.nnodes > 1 else "intra"
        rounds = math.ceil(math.log2(p))
        steps = (PlanStep("tree", spans, rounds, rounds * float(nbytes)),)
        algorithm = "flat"
    elif p > 1:
        l, n = topology.local_size, topology.nnodes
        parts = []
        if n > 1:
            rounds = math.ceil(math.log2(n))
            parts.append(PlanStep("inter_tree", "inter", rounds, rounds * float(nbytes)))
        if min(p, l) > 1:
            rounds = math.ceil(math.log2(min(p, l)))
            parts.append(PlanStep("intra_tree", "intra", rounds, rounds * float(nbytes)))
        steps = tuple(parts)
        algorithm = "hierarchical"
    else:
        algorithm = "flat"
    return CollectiveSchedule(
        "broadcast", algorithm, nbytes, topology, 1, nbytes, steps
    )
