"""The process-wide active tracer: activation, nesting, no-op paths."""

import pytest

from repro.telemetry import Tracer, active_tracer, tracing
from repro.telemetry import runtime as telemetry_rt


@pytest.fixture(autouse=True)
def clean_runtime():
    assert active_tracer() is None
    yield
    assert active_tracer() is None


def test_activate_deactivate():
    tracer = Tracer()
    with tracing(tracer):
        assert active_tracer() is tracer
    assert active_tracer() is None


def test_tracing_restores_previous():
    outer, inner = Tracer(run_id="outer"), Tracer(run_id="inner")
    with tracing(outer):
        assert active_tracer() is outer
        with tracing(inner):
            assert active_tracer() is inner
        assert active_tracer() is outer
    assert active_tracer() is None


def test_tracing_restores_on_exception():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracing(tracer):
            raise RuntimeError
    assert active_tracer() is None


def test_helpers_noop_when_inactive():
    with telemetry_rt.span("anything") as sp:
        assert sp is None
    assert telemetry_rt.counter("anything") is None


def test_helpers_record_when_active():
    tracer = Tracer()
    with tracing(tracer):
        with telemetry_rt.span("load", category="ingest", method="cached") as sp:
            assert sp is not None
            sp.set_attrs(rows=5)
        telemetry_rt.counter("hits", 2.0)
    (s,) = tracer.spans
    assert s.name == "load"
    assert s.attrs == {"method": "cached", "rows": 5}
    assert tracer.counters()["hits"] == pytest.approx(2.0)


def test_hvd_init_adopts_active_tracer():
    from repro import hvd

    tracer = Tracer()
    with tracing(tracer):
        hvd.init()
        try:
            assert hvd.tracer() is tracer
        finally:
            hvd.shutdown()
