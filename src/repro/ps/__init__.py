"""repro.ps — the request/reply envelope protocol of the serving plane.

Paper §1 sets Horovod's MPI model against distributed TensorFlow's gRPC
layer, where clients and parameter servers exchange typed requests and
replies. This package keeps that client/server wire format and nothing
else: :class:`RpcChannel` wraps one rank's
:class:`~repro.mpi.Communicator` and speaks :class:`RpcMessage`
envelopes on a private tag. The :mod:`repro.serve` front-end and its
replicas talk over it.
"""

from repro.ps.rpc import RpcChannel, RpcMessage

__all__ = [
    "RpcChannel",
    "RpcMessage",
]
