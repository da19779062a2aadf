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

# comms.ft before comms.engine: the engine's options import
# comms.ft.options, and the FT engine extends the engine
from repro.comms.ft import (
    DEFAULT_FT_OPTIONS,
    FaultToleranceOptions,
    FaultTolerantEngine,
)
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
    "DEFAULT_FT_OPTIONS",
    "DEFAULT_OPTIONS",
    "CollectiveEngine",
    "CollectiveOptions",
    "CollectiveSchedule",
    "FaultToleranceOptions",
    "FaultTolerantEngine",
    "PlanStep",
    "Topology",
    "plan_allgather",
    "plan_allreduce",
    "plan_broadcast",
    "select_algorithm",
]

