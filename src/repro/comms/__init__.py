"""repro.comms: the collective communication engine.

Collectives are *planned* (``plan_allreduce`` et al. turn message size +
topology + :class:`CollectiveOptions` into an inspectable
:class:`CollectiveSchedule`) and then either *executed* by the
rank-local :class:`CollectiveEngine` over real point-to-point messages,
or *priced* by the simulator's fabric cost model. One options object
threads from :class:`repro.hvd.DistributedOptimizer` down to the wire;
every schedule is bit-identical to the flat reference allreduce (see
:mod:`repro.comms.engine` for the contract).
"""

from repro.comms.engine import CollectiveEngine
from repro.comms.options import (
    ALGORITHMS,
    DEFAULT_OPTIONS,
    CollectiveOptions,
    select_algorithm,
)
from repro.comms.plan import (
    CollectiveSchedule,
    PlanStep,
    plan_allgather,
    plan_allreduce,
    plan_broadcast,
)
from repro.comms.topology import Topology

__all__ = [
    "ALGORITHMS",
    "DEFAULT_OPTIONS",
    "CollectiveEngine",
    "CollectiveOptions",
    "CollectiveSchedule",
    "PlanStep",
    "Topology",
    "plan_allgather",
    "plan_allreduce",
    "plan_broadcast",
    "select_algorithm",
]

