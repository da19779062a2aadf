"""repro.mpi — an in-process SPMD MPI runtime.

Horovod is "implemented by using MPI subroutines" and "based on MPI
concepts such as size, rank, local rank, allreduce, allgather, and
broadcast" (paper §2.2). This package provides those concepts without
real MPI: every rank is a Python thread running the same function
(SPMD), point-to-point messages move through per-edge queues, and the
collectives are the *real algorithms* — binomial-tree broadcast (what
MPI_Bcast uses for small/medium payloads), ring allgather, and a
gather-reduce-broadcast allreduce — moving real NumPy buffers between
threads. The ring allreduce (what NCCL and Baidu's
tensorflow-allreduce use) is :mod:`repro.comms`' engine, built on this
package's point-to-point messages.

Why threads and not processes: the experiments need deterministic,
debuggable rank interleavings and shared-nothing NumPy transfers; the
GIL does not serialize the semantics being tested (rendezvous order,
skew propagation, gradient math), and :mod:`repro.sim` supplies the
*timing* model for paper-scale runs.

The alpha-beta fabric terms live in :mod:`repro.mpi.network`; the
collective schedules of :mod:`repro.comms.plan` are priced on them.
"""

from repro.mpi.communicator import AbortError, Communicator, DeadlockError
from repro.mpi.network import CollectiveCostModel, FabricSpec
from repro.mpi.runtime import run_spmd

__all__ = [
    "Communicator",
    "AbortError",
    "DeadlockError",
    "run_spmd",
    "FabricSpec",
    "CollectiveCostModel",
]
