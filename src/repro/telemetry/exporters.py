"""Three exporters over one tracer: Chrome trace, JSONL, summary table.

- :func:`to_chrome_trace` emits the chrome://tracing JSON the paper
  reads Horovod timelines with (§4.2.1): ``ph="X"`` events keyed by
  name/cat/tid(rank)/ts/dur/args, with counters riding along as
  ``ph="C"`` events. :func:`read_chrome_trace` is its reader, so
  :mod:`repro.analysis.timeline_analysis` extracts broadcast overhead
  from a trace on disk as from a live tracer.
- :func:`dump_jsonl` streams every span and counter as one JSON object
  per line (the metrics feed).
- :func:`summary_rows` / :func:`format_summary` aggregate per span
  name: count, total and self seconds, and — when the tracer has a
  power binding — joules and average watts, the per-phase Table 5a/5b
  view.

All file writes are atomic (temp file + ``os.replace``), matching the
pattern :mod:`repro.ingest.cache` and the checkpoint manifest use — a
crash mid-dump never leaves a truncated artifact.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.telemetry.report import format_table
from repro.telemetry.tracer import Tracer

__all__ = [
    "to_chrome_trace",
    "dump_chrome_trace",
    "read_chrome_trace",
    "iter_jsonl",
    "dump_jsonl",
    "summary_rows",
    "format_summary",
    "export_run",
    "TraceArtifacts",
]


@contextmanager
def atomic_write(path, mode: str = "w") -> Iterator:
    """A temp file beside ``path``, opened with ``mode``, that replaces it.

    On a clean exit the file is flushed, fsynced and moved over ``path``
    with ``os.replace``; on any error it is removed and ``path`` keeps
    its old content. Telemetry artifacts, checkpoints and the checkpoint
    manifest are all written through here.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` through :func:`atomic_write`."""
    with atomic_write(path) as fh:
        fh.write(text)


def _span_args(tracer: Tracer, span) -> dict:
    args = dict(span.attrs)
    attributed = tracer.span_energy(span)
    if attributed is not None:
        energy, watts = attributed
        args["energy_j"] = energy
        args["avg_power_w"] = watts
    return args


# -- Chrome trace ----------------------------------------------------------

def to_chrome_trace(tracer: Tracer) -> dict:
    """The chrome://tracing JSON object for the whole run."""
    events = []
    for s in tracer.spans:
        events.append(
            {
                "name": s.name,
                "cat": s.category,
                "ph": "X",
                "pid": 0,
                "tid": s.rank,
                "ts": s.start_s * 1e6,
                "dur": s.duration_s * 1e6,
                "args": _span_args(tracer, s),
            }
        )
    for c in tracer.counter_events:
        events.append(
            {
                "name": c.name,
                "cat": "counter",
                "ph": "C",
                "pid": 0,
                "tid": c.rank,
                "ts": c.time_s * 1e6,
                "args": {"value": c.total, **c.attrs},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"run_id": tracer.run_id},
    }


def dump_chrome_trace(tracer: Tracer, path) -> str:
    """Atomically write the Chrome trace JSON; returns the path."""
    atomic_write_text(path, json.dumps(to_chrome_trace(tracer)))
    return os.fspath(path)


def read_chrome_trace(source) -> Tracer:
    """Rebuild a tracer from Chrome trace JSON.

    ``source`` is the trace dict, its JSON text, or a file path. Only
    complete (``ph="X"``) events become spans, each with its category,
    rank (``tid``), times and args; counter samples and metadata are
    skipped.
    """
    if isinstance(source, (str, bytes, os.PathLike)) and os.path.exists(
        os.fspath(source)
    ):
        with open(source) as fh:
            source = json.load(fh)
    elif isinstance(source, (str, bytes)):
        source = json.loads(source)
    tracer = Tracer(
        run_id=source.get("otherData", {}).get("run_id", "run"), origin_s=0.0
    )
    for ev in source.get("traceEvents", []):
        if ev.get("ph") == "X":
            tracer.record_span(
                ev["name"],
                float(ev["ts"]) / 1e6,
                float(ev.get("dur", 0.0)) / 1e6,
                category=ev.get("cat", "phase"),
                rank=int(ev.get("tid", 0)),
                **dict(ev.get("args") or {}),
            )
    return tracer


# -- JSONL metrics stream --------------------------------------------------

def iter_jsonl(tracer: Tracer) -> Iterator[str]:
    """One JSON line per span and counter event, spans first."""
    for s in tracer.spans:
        record = {
            "type": "span",
            "run": tracer.run_id,
            "name": s.name,
            "category": s.category,
            "rank": s.rank,
            "span_id": s.span_id,
            "parent_id": s.parent_id,
            "start_s": s.start_s,
            "duration_s": s.duration_s,
            "self_s": s.exclusive_s,
            "attrs": _span_args(tracer, s),
        }
        yield json.dumps(record)
    for c in tracer.counter_events:
        yield json.dumps(
            {
                "type": "counter",
                "run": tracer.run_id,
                "name": c.name,
                "rank": c.rank,
                "time_s": c.time_s,
                "value": c.value,
                "total": c.total,
                "attrs": dict(c.attrs),
            }
        )


def dump_jsonl(tracer: Tracer, path) -> str:
    """Atomically write the JSONL metrics stream; returns the path."""
    atomic_write_text(path, "".join(line + "\n" for line in iter_jsonl(tracer)))
    return os.fspath(path)


# -- per-phase summary -----------------------------------------------------

def summary_rows(tracer: Tracer) -> list[dict]:
    """Per span-name aggregates, ordered by first occurrence.

    ``total_s`` sums full durations; ``self_s`` sums exclusive time, so
    nested re-entry of one name never counts an interval twice. With a
    power binding each row also carries joules and average watts.
    """
    bound = tracer.power_binding is not None
    rows: dict[str, dict] = {}
    for s in tracer.spans:
        row = rows.get(s.name)
        if row is None:
            row = rows[s.name] = {
                "name": s.name,
                "category": s.category,
                "count": 0,
                "total_s": 0.0,
                "self_s": 0.0,
            }
            if bound:
                row["energy_j"] = 0.0
        row["count"] += 1
        row["total_s"] += s.duration_s
        row["self_s"] += s.exclusive_s
        if bound:
            row["energy_j"] += tracer.span_energy(s)[0]
    out = list(rows.values())
    for row in out:
        if bound:
            row["avg_power_w"] = (
                row["energy_j"] / row["total_s"] if row["total_s"] > 0 else 0.0
            )
    return out


def format_summary(tracer: Tracer, title: str = "") -> str:
    """The summary as an aligned text table."""
    rows = [
        {
            k: (round(v, 6) if isinstance(v, float) else v)
            for k, v in row.items()
        }
        for row in summary_rows(tracer)
    ]
    return format_table(rows, title=title or f"telemetry summary: {tracer.run_id}")


# -- the artifact set ------------------------------------------------------

@dataclass(frozen=True)
class TraceArtifacts:
    """One run's exported artifact set."""

    chrome_trace: str
    metrics_jsonl: str
    summary_txt: str


def export_run(tracer: Tracer, directory, prefix: str = "trace") -> TraceArtifacts:
    """Write the full artifact set (Chrome + JSONL + summary) atomically."""
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    chrome = dump_chrome_trace(
        tracer, os.path.join(directory, f"{prefix}.chrome.json")
    )
    jsonl = dump_jsonl(tracer, os.path.join(directory, f"{prefix}.metrics.jsonl"))
    summary = os.path.join(directory, f"{prefix}.summary.txt")
    atomic_write_text(summary, format_summary(tracer) + "\n")
    return TraceArtifacts(
        chrome_trace=chrome, metrics_jsonl=jsonl, summary_txt=summary
    )
