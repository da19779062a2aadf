"""repro.telemetry — the unified observability layer.

The paper's analysis is *joint*: every phase decomposition (Fig 2) is
read together with its power draw (Fig 7a) and its energy bill (Tables
5a/5b). Before this package, the repo mirrored the paper's tooling
fragmentation — a phase profiler kept wall clocks, a Horovod-style
timeline kept Chrome events, and :mod:`repro.cluster.power` kept
joules — three records of the same run that could not be joined. This package is the join:

- :class:`Tracer` — one per-run event log with nestable, thread-safe
  *spans* (name, category, rank, attrs, monotonic timestamps) and
  monotonic *counters*. It is the only event recorder: pipeline
  phases, Horovod collectives (the paper's ``negotiate_broadcast`` /
  ``mpi_broadcast`` / ``negotiate_allreduce`` / ``nccl_allreduce``
  timeline, categories ``broadcast`` and ``allreduce``), sharded
  loads, ingest loads, checkpoint I/O and the simulator all record
  here.
- :mod:`repro.telemetry.power` — binds a tracer to a
  :class:`~repro.cluster.power.PhasePowerProfile` so each span reports
  joules and average watts through the same trapezoid integration the
  meter post-processing uses; per-span energies sum to the profile
  total within trapezoid tolerance.
- :mod:`repro.telemetry.exporters` — three views of one record: Chrome
  trace JSON (the chrome://tracing schema Horovod timelines use, read
  back by :func:`read_chrome_trace` for
  :mod:`repro.analysis.timeline_analysis`), a JSONL metrics stream,
  and a per-phase summary table.
- :mod:`repro.telemetry.runtime` — the process-wide *active* tracer, so
  deep call sites (ingest methods, checkpoint writes) can record spans
  without every caller threading a tracer argument through.
- :mod:`repro.telemetry.report` — fixed-width table rendering for the
  summary, the CLIs and the experiment harnesses.
"""

from repro.telemetry.tracer import Counter, Span, Tracer
from repro.telemetry.power import PowerBinding, profile_from_spans
from repro.telemetry.exporters import (
    TraceArtifacts,
    dump_chrome_trace,
    dump_jsonl,
    export_run,
    format_summary,
    read_chrome_trace,
    summary_rows,
    to_chrome_trace,
)
from repro.telemetry.runtime import active_tracer, counter, span, tracing

__all__ = [
    "Tracer",
    "Span",
    "Counter",
    "PowerBinding",
    "profile_from_spans",
    "to_chrome_trace",
    "dump_chrome_trace",
    "read_chrome_trace",
    "dump_jsonl",
    "summary_rows",
    "format_summary",
    "export_run",
    "TraceArtifacts",
    "active_tracer",
    "tracing",
    "span",
    "counter",
]
