"""Horovod runtime state: per-rank (thread-local) context.

Real Horovod is per-process; our ranks are threads, so the module-level
API (``hvd.size()`` etc.) resolves through ``threading.local``. A rank
thread calls ``init(comm)`` once (``comm=None`` gives a self-contained
single-rank world) and ``shutdown()`` when done; the runners' one
driver, :func:`repro.candle.pipeline.run_rank`, handles both ends.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.comms import CollectiveEngine
from repro.mpi.communicator import Communicator, _Context
from repro.telemetry import runtime as telemetry

__all__ = [
    "init",
    "shutdown",
    "is_initialized",
    "size",
    "rank",
    "local_rank",
    "comm",
    "tracer",
    "engine",
    "options",
]

_tls = threading.local()


class _HvdState:
    def __init__(self, communicator: Communicator, tr, opts=None):
        self.comm = communicator
        self.tracer = tr
        self.options = opts
        self.engine = None  # CollectiveEngine, built lazily on first use


def init(
    communicator: Optional[Communicator] = None,
    tracer=None,
    options=None,
) -> None:
    """Initialize Horovod for the calling rank thread.

    ``communicator=None`` creates a single-rank world, so serial code
    using the Horovod API runs unchanged — matching ``horovodrun -np 1``.
    ``tracer`` is an optional :class:`repro.telemetry.Tracer` the
    collective ops record the paper's timeline events into; when
    omitted, the process-wide active tracer (if any) is adopted, so a
    run activated via :func:`repro.telemetry.tracing` sees its rank
    threads automatically. With neither, the ops record nothing. ``options`` is an optional
    :class:`repro.comms.CollectiveOptions` applied to every collective
    this rank issues; None uses the engine's automatic defaults.
    """
    if getattr(_tls, "state", None) is not None:
        raise RuntimeError("hvd.init() called twice on this rank; call shutdown() first")
    if communicator is None:
        communicator = Communicator(_Context(1, timeout=60.0), 0)
    if tracer is None:
        tracer = telemetry.active_tracer()
    _tls.state = _HvdState(communicator, tracer, options)
    telemetry.bind_rank(communicator.rank, tracer)


def shutdown() -> None:
    """Tear down this rank's Horovod state."""
    _tls.state = None
    telemetry.unbind_rank()


def is_initialized() -> bool:
    return getattr(_tls, "state", None) is not None


def _state() -> _HvdState:
    state = getattr(_tls, "state", None)
    if state is None:
        raise RuntimeError("Horovod not initialized on this rank; call hvd.init()")
    return state


def size() -> int:
    """Number of ranks (hvd.size())."""
    return _state().comm.size


def rank() -> int:
    """This rank's global index (hvd.rank())."""
    return _state().comm.rank


def local_rank() -> int:
    """This rank's index within its node (hvd.local_rank()).

    The paper pins ``visible_device_list = str(hvd.local_rank())`` — one
    GPU per process, 0-5 on a 6-GPU Summit node.
    """
    return _state().comm.local_rank


def comm() -> Communicator:
    """The underlying communicator for this rank."""
    return _state().comm


def tracer():
    """This rank's bound telemetry tracer, or None when untraced."""
    return _state().tracer


def engine():
    """This rank's collective engine (built lazily on first use).

    The engine binds the rank's communicator, its run-level
    :class:`~repro.comms.CollectiveOptions` (if any), and a live view of
    the tracer, so per-chunk spans follow tracer rebinding.
    """
    state = _state()
    if state.engine is None:
        state.engine = CollectiveEngine(
            state.comm,
            options=state.options,
            tracer=lambda: state.tracer,
        )
    return state.engine


def options():
    """The run-level CollectiveOptions, or None for engine defaults."""
    return _state().options
