"""End-to-end telemetry: the acceptance-criteria scenarios.

One traced NT3 run produces one artifact set whose per-span joules sum
to the profile's closed-form energy within trapezoid tolerance, the
existing timeline analysis reads the new traces unchanged, and every
wired layer (pipeline, collectives, ingest, checkpoints, simulator)
shows up in the span record.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.timeline_analysis import (
    broadcast_overhead_seconds,
    communication_summary,
)
from repro.candle import get_benchmark
from repro.candle.pipeline import run_benchmark
from repro.core import run_parallel_benchmark, strong_scaling_plan
from repro.hvd.ops import ALLREDUCE_EVENTS, BROADCAST_EVENTS
from repro.telemetry import (
    Tracer,
    export_run,
    profile_from_spans,
    read_chrome_trace,
    summary_rows,
    tracing,
)

#: modeled per-phase draw for a functional run (W) — load is the
#: low-power phase, exactly the paper's Table 5a/5b structure
PHASE_POWER_W = {"load": 60.0, "train": 250.0, "eval": 200.0}


@pytest.fixture(scope="module")
def nt3():
    return get_benchmark("nt3", scale=0.005, sample_scale=0.2)


@pytest.fixture(scope="module")
def traced_run(nt3):
    report = run_benchmark(nt3, epochs=1, seed=0, validation=False)
    return report


class TestTracedPipeline:
    def test_report_carries_tracer_with_phase_spans(self, traced_run):
        tracer = traced_run.tracer
        assert tracer is not None
        names = [s.name for s in tracer.top_level_spans()]
        assert names == ["load", "train", "eval"]

    def test_phase_seconds_come_from_spans(self, traced_run):
        spans = {s.name: s for s in traced_run.tracer.top_level_spans()}
        assert traced_run.load_s == pytest.approx(spans["load"].duration_s)
        assert traced_run.train_s == pytest.approx(spans["train"].duration_s)
        assert traced_run.eval_s == pytest.approx(spans["eval"].duration_s)

    def test_artifact_set_with_energy_attribution(self, traced_run, tmp_path):
        """The headline acceptance scenario: one run, one artifact set,
        per-span joules summing to the profile total."""
        tracer = traced_run.tracer
        profile = profile_from_spans(tracer, PHASE_POWER_W, rank=0)
        tracer.bind_power(profile, rate_hz=1000.0)

        spans = tracer.top_level_spans()
        total = sum(tracer.span_energy(s)[0] for s in spans)
        exact = profile.exact_energy_j()
        # trapezoid tolerance: one sample interval per power step
        max_step_w = max(PHASE_POWER_W.values())
        bound = len(spans) * max_step_w / (2 * 1000.0) + 1e-9
        assert abs(total - exact) <= bound

        arts = export_run(tracer, tmp_path, prefix="nt3")
        trace = json.loads(Path(arts.chrome_trace).read_text())
        traced_names = {e["name"] for e in trace["traceEvents"]}
        assert {"load", "train", "eval"} <= traced_names
        load_ev = next(e for e in trace["traceEvents"] if e["name"] == "load")
        assert load_ev["args"]["energy_j"] > 0
        records = [
            json.loads(line) for line in Path(arts.metrics_jsonl).read_text().splitlines()
        ]
        assert any(r["name"] == "train" for r in records)
        summary = Path(arts.summary_txt).read_text()
        assert "energy_j" in summary

    def test_summary_reproduces_low_power_load_effect(self, traced_run):
        tracer = traced_run.tracer
        profile = profile_from_spans(tracer, PHASE_POWER_W, rank=0)
        tracer.bind_power(profile, mode="exact")
        rows = {r["name"]: r for r in summary_rows(tracer)}
        assert rows["load"]["avg_power_w"] == pytest.approx(60.0, rel=1e-6)
        assert rows["train"]["avg_power_w"] == pytest.approx(250.0, rel=1e-6)


class TestTracedParallelRun:
    def test_broadcast_overhead_readable_from_new_trace(self, nt3, tmp_path):
        plan = strong_scaling_plan(nt3.spec, 2, total_epochs=2)
        res = run_parallel_benchmark(nt3, plan, seed=1)
        assert res.tracer is not None
        # per-rank phase spans for both ranks
        for rank in range(2):
            names = [s.name for s in res.tracer.top_level_spans(rank=rank) if s.category == "phase"]
            assert names[:3] == ["load", "train", "eval"]

        # the analysis reads the live tracer and the dumped Chrome trace,
        # reloaded from disk, alike
        from_tracer = broadcast_overhead_seconds(res.tracer)
        assert from_tracer > 0
        arts = export_run(res.tracer, tmp_path, prefix="par")
        reloaded = read_chrome_trace(arts.chrome_trace)
        assert broadcast_overhead_seconds(reloaded) == pytest.approx(
            from_tracer, abs=1e-6
        )
        summary = communication_summary(reloaded)
        assert summary["allreduce_n"] >= 2
        assert any(s.attrs.get("bytes") for s in reloaded.spans_named("allreduce"))

    def test_traced_run_carries_the_papers_full_event_set(self, nt3):
        """Every timeline event reaches the run's tracer: the allreduce
        and broadcast families, once per collective per rank."""
        plan = strong_scaling_plan(nt3.spec, 2, total_epochs=2)
        res = run_parallel_benchmark(nt3, plan, seed=1)
        rank0 = [s for s in res.tracer.spans_named("nccl_allreduce") if s.rank == 0]
        total = sum(s.duration_s for s in rank0)
        summary = communication_summary(res.tracer)
        assert 0 < total <= summary["nccl_allreduce_s"]
        for name in ("mpi_broadcast", "nccl_allreduce"):
            assert summary[f"{name}_s"] > 0
            assert summary[f"{name}_n"] > 0
        steps = -(-nt3.train_samples // plan.batch_size) * plan.epochs_per_worker
        for rank in range(2):
            counts = {
                name: sum(1 for s in res.tracer.spans_named(name) if s.rank == rank)
                for name in BROADCAST_EVENTS + ALLREDUCE_EVENTS
            }
            assert counts == {
                **{name: 1 for name in BROADCAST_EVENTS},
                **{name: steps for name in ALLREDUCE_EVENTS},
            }


class TestIngestSpans:
    def test_datasource_load_records_span_and_counters(self, csv_file):
        from repro.ingest import DataSource, LoaderConfig

        path, _ = csv_file
        tracer = Tracer()
        with tracing(tracer):
            DataSource(path).load(LoaderConfig(method="original"))
        (span,) = tracer.spans_named("ingest.load")
        assert span.category == "ingest"
        assert span.attrs["method"] == "original"
        assert span.attrs["rows"] == 50
        totals = tracer.counters()
        assert totals["ingest.loads"] == 1
        assert totals["ingest.rows"] == 50

    def test_cache_hit_miss_counters(self, csv_file, tmp_path):
        from repro.ingest import DataSource, LoaderConfig

        path, _ = csv_file
        config = LoaderConfig(method="cached", cache_dir=str(tmp_path / "c"))
        tracer = Tracer()
        with tracing(tracer):
            DataSource(path).load(config)  # cold: parse + store
            DataSource(path).load(config)  # warm: cache hit
        totals = tracer.counters()
        assert totals["ingest.cache.miss"] == 1
        assert totals["ingest.cache.hit"] == 1
        hits = [s.attrs.get("cache_hit") for s in tracer.spans_named("ingest.load")]
        assert hits == [False, True]


class TestCheckpointSpans:
    def test_save_and_restore_record_spans(self, nt3, tmp_path):
        from repro.resilience import CheckpointManager

        model = nt3.build_model(seed=0)
        model.compile("sgd", "categorical_crossentropy", lr=0.01)
        manager = CheckpointManager(tmp_path / "ckpt")
        tracer = Tracer()
        with tracing(tracer):
            manager.save(model, epoch=0)
            manager.restore_latest(model)
        (save,) = tracer.spans_named("checkpoint.save")
        assert save.category == "checkpoint"
        assert save.attrs["epoch"] == 0
        assert save.attrs["bytes"] > 0
        (restore,) = tracer.spans_named("checkpoint.restore")
        assert restore.attrs["epoch"] == 0
        totals = tracer.counters()
        assert totals["checkpoint.saves"] == 1
        assert totals["checkpoint.restores"] == 1


class TestSimulatorSpans:
    def test_sim_run_emits_spans_in_sim_time(self):
        from repro.core.scaling import ScalingPlan
        from repro.sim.runner import ScaledRunSimulator

        plan = ScalingPlan(
            benchmark="nt3",
            mode="strong",
            nworkers=8,
            epochs_per_worker=2,
            batch_size=20,
            learning_rate=0.001,
        )
        tracer = Tracer(origin_s=0.0)
        sim = ScaledRunSimulator("summit")
        report = sim.run("nt3", plan, tracer=tracer)
        names = {s.name for s in tracer.spans}
        assert {"data_loading", "mpi_broadcast", "train_compute"} <= names
        # a tracked rank's span energies, bound to its own profile,
        # reproduce the simulator's exact per-phase accounting
        rank = min(report.profiles)
        profile = report.profiles[rank]
        tracer.bind_power(profile, mode="exact")
        load = next(
            s for s in tracer.spans if s.name == "data_loading" and s.rank == rank
        )
        energy, watts = tracer.span_energy(load)
        assert energy == pytest.approx(
            profile.phase_energy_j()["data_loading"], rel=1e-9
        )
        assert watts == pytest.approx(load.attrs["power_w"], rel=1e-9)

    def test_tracer_and_timeline_agree(self):
        from repro.core.scaling import ScalingPlan
        from repro.sim.runner import ScaledRunSimulator

        plan = ScalingPlan(
            benchmark="nt3",
            mode="strong",
            nworkers=4,
            epochs_per_worker=1,
            batch_size=20,
            learning_rate=0.001,
        )
        tracer = Tracer(origin_s=0.0)
        report = ScaledRunSimulator("theta").run("nt3", plan, tracer=tracer)
        assert report.tracer is tracer
        # the simulator's own tracer records the same spans
        own = ScaledRunSimulator("theta").run("nt3", plan).tracer
        assert own is not tracer
        assert [(s.name, s.category, s.rank, s.start_s, s.duration_s) for s in own.spans] == [
            (s.name, s.category, s.rank, s.start_s, s.duration_s) for s in tracer.spans
        ]
        assert broadcast_overhead_seconds(tracer) > 0
