"""repro.hvd — a Horovod reimplementation on :mod:`repro.mpi`.

Horovod's public surface, as the paper's methodology (§2.3.2) uses it:

- ``init`` / ``size`` / ``rank`` — rank identity.
- ``DistributedOptimizer(opt)`` — "delegates the gradient computation to
  the original optimizer, averages gradients using the Allreduce, and
  then applies those averaged gradients."
- ``BroadcastGlobalVariablesCallback(0)`` — "broadcast initial variable
  states from rank 0 to all other processes … ensures consistent
  initialization of all workers."
- Tensor fusion — "batch small allreduce operations by combining all the
  tensors that are ready to be reduced at a given moment into one
  reduction operation": ``DistributedOptimizer`` reduces the gradient
  slab in slices of at most ``CollectiveOptions.fusion_bytes``
  (:func:`repro.nn.arena.fusion_plan`, ``DEFAULT_FUSION_BYTES`` = 64 MB).
- Horovod's timeline — every collective records the paper's event
  names (``negotiate_broadcast``, ``mpi_broadcast``,
  ``negotiate_allreduce``, ``nccl_allreduce``) as spans on the rank's
  :class:`repro.telemetry.Tracer` (bound by ``init(comm, tracer=...)``),
  exported for ``chrome://tracing`` by
  :func:`repro.telemetry.dump_chrome_trace`.

Because ranks are threads, the module-level state is thread-local: each
rank thread calls ``init(comm)`` with its own communicator and sees its
own rank identity, exactly like per-process Horovod.

Collective transport — algorithm, chunking, fusion size —
is configured by one :class:`repro.comms.CollectiveOptions` (re-exported
here) passed to ``init`` or ``DistributedOptimizer`` and threaded down
to the engine unchanged.
"""

from repro.comms import CollectiveOptions
from repro.comms.options import DEFAULT_FUSION_BYTES
from repro.train import TrainOptions
from repro.hvd.callbacks import (
    BroadcastGlobalVariablesCallback,
    FaultInjectionCallback,
    ManagedCheckpointCallback,
    broadcast_restored,
)
from repro.hvd.optimizer import DistributedOptimizer
from repro.hvd.ops import allreduce, broadcast, broadcast_weights
from repro.hvd.runtime import (
    engine,
    init,
    is_initialized,
    rank,
    shutdown,
    size,
    tracer,
)

__all__ = [
    "init",
    "shutdown",
    "is_initialized",
    "size",
    "rank",
    "tracer",
    "engine",
    "CollectiveOptions",
    "TrainOptions",
    "allreduce",
    "broadcast",
    "broadcast_weights",
    "DistributedOptimizer",
    "BroadcastGlobalVariablesCallback",
    "ManagedCheckpointCallback",
    "FaultInjectionCallback",
    "broadcast_restored",
    "DEFAULT_FUSION_BYTES",
]
