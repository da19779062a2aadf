"""A rank thread's telemetry binding lasts from ``hvd.init`` to ``hvd.shutdown``.

:func:`repro.hvd.init` binds the calling thread's rank and tracer in
:mod:`repro.telemetry.runtime`; :func:`repro.hvd.shutdown` clears them.
"""

from repro import hvd
from repro.telemetry import Tracer
from repro.telemetry import runtime


def test_binding_is_cleared_at_shutdown():
    tracer = Tracer()
    hvd.init(tracer=tracer)
    assert runtime.thread_tracer() is tracer
    hvd.shutdown()
    assert runtime.thread_tracer() is runtime.active_tracer() is not tracer
