"""Exporters: Chrome schema compatibility, JSONL, summaries, atomicity."""

import json
import os
from pathlib import Path

import pytest

from repro.analysis.timeline_analysis import broadcast_overhead_seconds
from repro.hvd.timeline import Timeline
from repro.telemetry import (
    Tracer,
    dump_chrome_trace,
    dump_jsonl,
    export_run,
    format_summary,
    summary_rows,
    to_chrome_trace,
)
from repro.telemetry.exporters import atomic_write_text
from tests.telemetry.test_tracer import FakeClock


@pytest.fixture
def traced():
    clock = FakeClock()
    tracer = Tracer(run_id="export-test", clock=clock, origin_s=0.0)
    with tracer.span("load", rank=0, method="cached"):
        clock.advance(2.0)
        tracer.counter("ingest.cache.hit")
    with tracer.span("train", rank=0):
        clock.advance(4.0)
        with tracer.span("allreduce", category="allreduce", rank=0, bytes=4096):
            clock.advance(1.0)
    return tracer


class TestChromeTrace:
    def test_span_schema_matches_timeline_events(self, traced):
        """Span events carry the exact keys Timeline.to_chrome emits
        (name/cat/ph/pid/tid/ts/dur/args) — the superset guarantee."""
        trace = to_chrome_trace(traced)
        span_events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        reference = set(
            Timeline()
            .record("allreduce", 0, 0.0, 1.0)
            .to_chrome()
            .keys()
        )
        for ev in span_events:
            assert reference <= set(ev.keys())
        assert trace["displayTimeUnit"] == "ms"

    def test_timestamps_in_microseconds(self, traced):
        trace = to_chrome_trace(traced)
        load = next(e for e in trace["traceEvents"] if e["name"] == "load")
        assert load["ts"] == pytest.approx(0.0)
        assert load["dur"] == pytest.approx(2e6)
        assert load["tid"] == 0
        assert load["args"]["method"] == "cached"

    def test_counter_events(self, traced):
        trace = to_chrome_trace(traced)
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert len(counters) == 1
        assert counters[0]["name"] == "ingest.cache.hit"
        assert counters[0]["args"]["value"] == pytest.approx(1.0)

    def test_roundtrip_through_timeline_analysis(self, tmp_path):
        """A dumped telemetry trace is readable by the existing analysis
        layer: broadcast overhead comes out unchanged."""
        tracer = Tracer(run_id="bc", origin_s=0.0)
        tracer.record_span(
            "negotiate_broadcast", 10.0, 40.0, category="broadcast", rank=0
        )
        tracer.record_span("broadcast", 50.0, 3.72, category="broadcast", rank=0)
        path = tmp_path / "trace.json"
        dump_chrome_trace(tracer, path)
        reloaded = Timeline.from_chrome(path)
        assert broadcast_overhead_seconds(reloaded) == pytest.approx(43.72)
        assert broadcast_overhead_seconds(tracer.as_timeline()) == pytest.approx(
            43.72
        )


class TestJsonl:
    def test_every_line_parses(self, traced, tmp_path):
        path = tmp_path / "metrics.jsonl"
        dump_jsonl(traced, path)
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == 4  # 3 spans + 1 counter
        spans = [r for r in records if r["type"] == "span"]
        counters = [r for r in records if r["type"] == "counter"]
        assert {s["name"] for s in spans} == {"load", "train", "allreduce"}
        assert counters[0]["total"] == pytest.approx(1.0)
        train = next(s for s in spans if s["name"] == "train")
        assert train["self_s"] == pytest.approx(4.0)
        assert train["duration_s"] == pytest.approx(5.0)


class TestSummary:
    def test_rows_aggregate_self_time(self, traced):
        rows = {r["name"]: r for r in summary_rows(traced)}
        assert rows["train"]["total_s"] == pytest.approx(5.0)
        assert rows["train"]["self_s"] == pytest.approx(4.0)
        assert rows["allreduce"]["count"] == 1
        assert "energy_j" not in rows["load"]

    def test_rows_with_power(self, traced):
        from repro.telemetry import profile_from_spans

        profile = profile_from_spans(
            traced, {"load": 60.0, "train": 250.0}, rank=0
        )
        traced.bind_power(profile, mode="exact")
        rows = {r["name"]: r for r in summary_rows(traced)}
        assert rows["load"]["energy_j"] == pytest.approx(120.0)
        assert rows["load"]["avg_power_w"] == pytest.approx(60.0)
        # the nested allreduce inherits the train phase's wattage window
        assert rows["allreduce"]["energy_j"] == pytest.approx(250.0)

    def test_format_summary_renders(self, traced):
        text = format_summary(traced)
        assert "export-test" in text
        assert "train" in text and "total_s" in text


class TestAtomicity:
    def test_write_replaces_atomically(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"
        assert os.listdir(tmp_path) == ["out.json"]  # no temp litter

    def test_failed_write_leaves_original(self, tmp_path, monkeypatch):
        path = tmp_path / "out.json"
        path.write_text("precious")

        real_replace = os.replace

        def exploding_replace(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            atomic_write_text(path, "partial")
        monkeypatch.setattr(os, "replace", real_replace)
        assert path.read_text() == "precious"
        assert os.listdir(tmp_path) == ["out.json"]


class TestExportRun:
    def test_artifact_set(self, traced, tmp_path):
        arts = export_run(traced, tmp_path / "run", prefix="nt3")
        assert os.path.basename(arts.chrome_trace) == "nt3.chrome.json"
        trace = json.loads(Path(arts.chrome_trace).read_text())
        assert any(e["name"] == "load" for e in trace["traceEvents"])
        assert trace["otherData"]["run_id"] == "export-test"
        lines = Path(arts.metrics_jsonl).read_text().splitlines()
        assert all(json.loads(line) for line in lines)
        assert "train" in Path(arts.summary_txt).read_text()
