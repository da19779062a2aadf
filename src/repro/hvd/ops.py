"""Instrumented collective operations (the hvd.* tensor ops).

Every op records the paper's timeline event structure as spans on the
rank's :class:`~repro.telemetry.Tracer`:

- a *negotiate* phase — Horovod's coordinator rendezvous, which in
  functional mode is real waiting: the time from this rank entering the
  op until every rank has entered. This is exactly the mechanism behind
  the paper's 43.72 s broadcast overhead: ranks that finish data loading
  early sit in ``negotiate_broadcast`` until the slowest loader arrives.
- the op itself (``broadcast`` / ``allreduce``) and its data-movement
  phase (``mpi_broadcast`` / ``nccl_allreduce``), which is the
  tree/ring algorithm actually moving buffers.

With no tracer bound to the rank (see :func:`repro.hvd.init`), the ops
record nothing.

Array allreduces route through the rank's
:class:`~repro.comms.CollectiveEngine`, which resolves the transport
algorithm (ring / recursive halving-doubling / hierarchical / flat) from
the run's :class:`~repro.comms.CollectiveOptions` and the machine
topology. Every schedule is bit-identical to the flat reference path,
so this routing is numerically invisible.

All signatures are keyword-only past the payload (``op=``, ``root=``,
``name=``, and ``allreduce``'s ``options=``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Optional

import numpy as np

from repro.hvd import runtime as _rt
from repro.mpi.communicator import payload_nbytes as _nbytes

__all__ = [
    "allreduce",
    "allreduce_update",
    "broadcast",
    "allgather",
    "broadcast_weights",
    "BROADCAST_EVENTS",
    "ALLREDUCE_EVENTS",
]

#: the paper's event families (§4.2.1), in the order each op records them
BROADCAST_EVENTS = ("negotiate_broadcast", "broadcast", "mpi_broadcast")
ALLREDUCE_EVENTS = ("negotiate_allreduce", "allreduce", "nccl_allreduce")


def _record(family, rank, t_enter, t_ready, t_done, tensor: str, **attrs) -> None:
    """Record one collective's event family on the rank's tracer.

    ``family`` is :data:`BROADCAST_EVENTS` or :data:`ALLREDUCE_EVENTS`,
    whose op name is also the spans' category; the op span carries
    ``attrs`` (bytes, algorithm). Times are raw ``perf_counter``
    readings. No-op when the rank is untraced.
    """
    tr = _rt.tracer()
    if tr is None:
        return
    negotiate, op, movement = family
    for name, start, end, extra in (
        (negotiate, t_enter, t_ready, {}),
        (op, t_ready, t_done, attrs),
        (movement, t_ready, t_done, {}),
    ):
        tr.record_span(
            name, start, end - start, category=op, rank=rank, absolute=True,
            tensor=tensor, **extra,
        )


@contextmanager
def _allreduce_events(tag: str, nbytes: int):
    """Negotiate, then record one allreduce's event family.

    Yields a dict whose ``"algorithm"`` the body sets to the resolved
    transport algorithm, and whose ``"bytes"`` (``nbytes`` until the body
    changes it) the ``allreduce`` span records.
    """
    comm = _rt.comm()
    t_enter = time.perf_counter()
    comm.barrier()  # rendezvous: every rank ready to reduce
    t_ready = time.perf_counter()
    info = {"algorithm": "flat", "bytes": nbytes}
    yield info
    t_done = time.perf_counter()
    _record(
        ALLREDUCE_EVENTS, comm.rank, t_enter, t_ready, t_done, tag,
        bytes=info["bytes"], algorithm=info["algorithm"],
    )


def allreduce(
    tensor: np.ndarray,
    *,
    op: str = "mean",
    name: Optional[str] = None,
    options=None,
) -> np.ndarray:
    """Average (or sum/max/min) a tensor across all ranks.

    Records ``negotiate_allreduce`` (rendezvous wait), ``allreduce``
    (the whole op), and ``nccl_allreduce`` (the data movement, tagged
    with the resolved algorithm). ``options`` overrides the run-level
    :class:`~repro.comms.CollectiveOptions` for this one call.
    """
    tag = name or "tensor"
    with _allreduce_events(tag, _nbytes(tensor)) as info:
        if isinstance(tensor, np.ndarray) and tensor.size >= _rt.comm().size:
            eng = _rt.engine()
            result = eng.allreduce(tensor, op=op, name=tag, options=options)
            info["algorithm"] = eng.last_info.get("algorithm", "flat")
        else:
            # scalars and sub-world arrays take the communicator's tree path
            result = _rt.comm().allreduce(tensor, op=op)
    return result


def allreduce_update(
    slabs, update, *, whole: bool = False, name: Optional[str] = None, options=None
) -> None:
    """Mean-allreduce a gradient range, then update it.

    :meth:`CollectiveEngine.allreduce_update
    <repro.comms.CollectiveEngine.allreduce_update>` on this rank's
    engine over ``slabs`` = ``(grads, params)``, recorded like
    :func:`allreduce` of the gradient: it moves the same bytes. A world
    of one has nothing to reduce or negotiate: ``update`` runs over the
    whole range, and nothing is recorded.
    """
    eng = _rt.engine()
    if eng.comm.size == 1:
        update(0, slabs[0].size)
        return
    tag = name or "tensor"
    with _allreduce_events(tag, int(slabs[0].nbytes)) as info:
        eng.allreduce_update(slabs, update, whole=whole, name=tag, options=options)
        info["algorithm"] = eng.last_info.get("algorithm", "flat")


def broadcast(obj: Any, *, root: int = 0, name: Optional[str] = None) -> Any:
    """Broadcast any object from ``root``; returns it on every rank.

    Records ``negotiate_broadcast`` (rendezvous wait — dominated by
    data-loading skew in the unoptimized benchmarks), ``broadcast``, and
    ``mpi_broadcast`` (the binomial-tree movement).
    """
    comm = _rt.comm()
    tag = name or "object"
    t_enter = time.perf_counter()
    comm.barrier()  # rendezvous: slowest rank gates everyone
    t_ready = time.perf_counter()
    result = comm.bcast(obj, root=root)
    t_done = time.perf_counter()
    _record(BROADCAST_EVENTS, comm.rank, t_enter, t_ready, t_done, tag, bytes=_nbytes(obj))
    return result


def allgather(obj: Any, *, name: Optional[str] = None) -> list:
    """Gather one object per rank, everywhere (rank-ordered)."""
    comm = _rt.comm()
    t_enter = time.perf_counter()
    result = comm.allgather(obj)
    duration = time.perf_counter() - t_enter
    tr = _rt.tracer()
    if tr is not None:
        tr.record_span(
            "allgather", t_enter, duration, category="allgather", rank=comm.rank,
            absolute=True, tensor=name or "object", bytes=_nbytes(obj),
        )
    return result


def broadcast_weights(target, *, root: int = 0) -> None:
    """Broadcast model weights from ``root`` and install them in place.

    ``target`` is a :class:`repro.nn.Sequential` or a name→array dict.
    In-place installation preserves optimizer-state identity — the same
    property Horovod's broadcast hook relies on.
    """
    if hasattr(target, "named_parameters"):
        params = target.named_parameters()
    elif isinstance(target, dict):
        params = target
    else:
        raise TypeError(
            f"expected a model with named_parameters() or a dict, got {type(target)!r}"
        )
    names = sorted(params)
    payload = [params[n] for n in names] if _rt.rank() == root else None
    received = broadcast(payload, root=root, name="global_variables")
    for name, arr in zip(names, received):
        np.copyto(params[name], arr)
    arena = getattr(target, "arena", None)
    if arena is not None:
        arena.replicated = True
