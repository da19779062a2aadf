"""The process-wide active tracer.

Deep call sites — an ingest method five frames below the pipeline, a
checkpoint write inside a Horovod callback — should not force a
``tracer=`` parameter through every intermediate signature. Instead the
run's entry point *activates* its tracer here and the leaves record
through the module-level :func:`span` / :func:`counter` helpers, which
collapse to near-zero-cost no-ops when nothing is active.

One process, one active tracer: the SPMD runtime executes ranks as
threads of a single run, and the tracer itself is thread-safe with
per-thread span stacks, so rank concurrency needs nothing extra.
Nested activations restore the previous tracer on exit
(:func:`tracing` is re-entrant).

Each rank thread also has a *binding*: its rank and the tracer its
collectives record into. :func:`repro.hvd.init` binds them and
:func:`repro.hvd.shutdown` clears them. A span opened without an explicit rank takes
:func:`thread_rank`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:
    from repro.telemetry.tracer import Tracer

__all__ = [
    "activate",
    "deactivate",
    "active_tracer",
    "tracing",
    "span",
    "counter",
    "bind_rank",
    "unbind_rank",
    "thread_rank",
    "thread_tracer",
]

_lock = threading.Lock()
_active: Optional[Tracer] = None
#: per rank thread: ``binding`` is (rank, tracer) while the rank is bound
_thread = threading.local()


def activate(tracer: Tracer) -> None:
    """Make ``tracer`` the process-wide default."""
    global _active
    with _lock:
        _active = tracer


def deactivate() -> None:
    """Clear the process-wide default tracer."""
    global _active
    with _lock:
        _active = None


def active_tracer() -> Optional[Tracer]:
    """The active tracer, or None when tracing is off."""
    return _active


def bind_rank(rank: int, tracer: Optional[Tracer]) -> None:
    """Bind the calling thread's rank and tracer (None: untraced)."""
    _thread.binding = (rank, tracer)


def unbind_rank() -> None:
    """Clear the calling thread's binding."""
    _thread.binding = None


def thread_rank() -> int:
    """The calling thread's bound rank, 0 outside any rank context."""
    binding = getattr(_thread, "binding", None)
    return 0 if binding is None else binding[0]


def thread_tracer() -> Optional[Tracer]:
    """The calling thread's bound tracer, else the active one."""
    binding = getattr(_thread, "binding", None)
    return _active if binding is None else binding[1]


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Activate ``tracer`` for the duration of the block (re-entrant)."""
    global _active
    with _lock:
        previous = _active
        _active = tracer
    try:
        yield tracer
    finally:
        with _lock:
            _active = previous


def span(name: str, category: str = "phase", rank: Optional[int] = None, **attrs):
    """A span on the active tracer; a no-op context when tracing is off.

    The returned context yields the open span (with ``set_attrs``) when
    active, or None when not — call sites guard attr updates with
    ``if sp is not None``.
    """
    tracer = _active
    if tracer is None:
        return nullcontext(None)
    return tracer.span(name, category=category, rank=rank, **attrs)


def counter(name: str, value: float = 1.0, rank: Optional[int] = None, **attrs):
    """Bump a counter on the active tracer; no-op when tracing is off."""
    tracer = _active
    if tracer is None:
        return None
    return tracer.counter(name, value=value, rank=rank, **attrs)
