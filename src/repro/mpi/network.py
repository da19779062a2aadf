"""Alpha-beta fabric terms.

The functional runtime (threads) gives *semantics*; this module gives
*time*. A :class:`FabricSpec` holds a machine's LogP-style alpha-beta
terms: a point-to-point message of ``n`` bytes costs
``alpha + n * beta``. The collectives are priced from the schedules
that run them (:meth:`repro.comms.plan.CollectiveSchedule.seconds`);
:class:`CollectiveCostModel` keeps the two costs that are not a
collective schedule: one message, and Horovod's negotiation round.

Fabrics are two-level (intra-node NVLink/shared-memory vs inter-node
InfiniBand/Aries): when a collective spans nodes, the inter-node alpha
and the inter-node beta bound the pipeline, which is why the paper sees
"the Horovod allreduce overhead on 3,072 GPUs is almost three times
larger than using 6 GPUs on a single node" despite NCCL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["FabricSpec", "CollectiveCostModel"]


@dataclass(frozen=True)
class FabricSpec:
    """Latency/bandwidth parameters of one machine's interconnect.

    ``*_alpha_s`` are per-message latencies in seconds; ``*_beta_s_per_b``
    are inverse bandwidths in seconds/byte. ``reduce_gamma_s_per_b`` is
    the per-byte cost of the local reduction arithmetic.
    """

    name: str
    intra_alpha_s: float
    intra_beta_s_per_b: float
    inter_alpha_s: float
    inter_beta_s_per_b: float
    reduce_gamma_s_per_b: float = 2.0e-11

    def __post_init__(self):
        for field_name in (
            "intra_alpha_s",
            "intra_beta_s_per_b",
            "inter_alpha_s",
            "inter_beta_s_per_b",
            "reduce_gamma_s_per_b",
        ):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be non-negative")

    def link(self, spans_nodes: bool) -> tuple[float, float]:
        """(alpha, beta) of the bounding link class."""
        if spans_nodes:
            return self.inter_alpha_s, self.inter_beta_s_per_b
        return self.intra_alpha_s, self.intra_beta_s_per_b


class CollectiveCostModel:
    """Point-to-point and negotiation timings on a :class:`FabricSpec`.

    ``ranks_per_node`` decides when an operation spans nodes. All
    methods return seconds.
    """

    def __init__(self, fabric: FabricSpec, ranks_per_node: int = 1):
        if ranks_per_node <= 0:
            raise ValueError(f"ranks_per_node must be positive, got {ranks_per_node}")
        self.fabric = fabric
        self.ranks_per_node = ranks_per_node

    def _spans_nodes(self, p: int) -> bool:
        return p > self.ranks_per_node

    def p2p(self, nbytes: int, spans_nodes: bool = True) -> float:
        """One point-to-point message."""
        alpha, beta = self.fabric.link(spans_nodes)
        return alpha + nbytes * beta

    def negotiate(self, p: int) -> float:
        """Horovod's coordination round (tensor-readiness bitmap gather).

        Modeled as one small-gather + small-bcast through rank 0, which
        is how Horovod's coordinator negotiates ``negotiate_allreduce`` /
        ``negotiate_broadcast`` entries seen in the paper's timelines.
        """
        if p <= 1:
            return 0.0
        alpha, beta = self.fabric.link(self._spans_nodes(p))
        rounds = 2 * math.ceil(math.log2(p))
        return rounds * (alpha + 64 * beta)
