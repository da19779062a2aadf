"""Analysis layer: cProfile wrapper, timeline analysis, energy comparisons, tables."""

import pytest

from repro.analysis import (
    EnergyComparison,
    broadcast_overhead_seconds,
    communication_summary,
    compare_runs,
    profile_callable,
)
from repro.telemetry import Tracer
from repro.telemetry.report import format_table


def test_profile_callable_finds_hotspot():
    def hot():
        return sum(i * i for i in range(200_000))

    result, report = profile_callable(hot, top=5)
    assert result == sum(i * i for i in range(200_000))
    assert "cumulative" in report


class TestTimelineAnalysis:
    def _timeline(self):
        tr = Tracer(origin_s=0.0)
        tr.record_span("negotiate_broadcast", 10.0, 40.0, rank=0)
        tr.record_span("negotiate_broadcast", 48.0, 2.0, rank=1)
        tr.record_span("mpi_broadcast", 50.0, 1.5, rank=0)
        tr.record_span("mpi_broadcast", 50.0, 1.5, rank=1)
        tr.record_span("nccl_allreduce", 60.0, 0.2, rank=0)
        tr.record_span("nccl_allreduce", 61.0, 0.3, rank=0)
        return tr

    def test_broadcast_overhead_span(self):
        # first negotiate at 10, last broadcast ends 51.5 -> 41.5 s
        assert broadcast_overhead_seconds(self._timeline()) == pytest.approx(41.5)

    def test_empty_timeline(self):
        assert broadcast_overhead_seconds(Tracer()) == 0.0

    def test_allreduce_total_per_rank(self):
        tl = self._timeline()
        assert communication_summary(tl)["nccl_allreduce_s"] == pytest.approx(0.5)
        assert [s.rank for s in tl.spans_named("nccl_allreduce")] == [0, 0]

    def test_communication_summary(self):
        s = communication_summary(self._timeline())
        assert s["negotiate_broadcast_n"] == 2
        assert s["negotiate_broadcast_s"] == pytest.approx(42.0)
        assert s["nccl_allreduce_n"] == 2


class TestEnergyComparison:
    def test_compare_runs(self):
        from repro.candle.nt3 import NT3_SPEC
        from repro.core.scaling import strong_scaling_plan
        from repro.sim import ScaledRunSimulator

        plan = strong_scaling_plan(NT3_SPEC, 48)
        sim = ScaledRunSimulator("summit")
        orig = sim.run(NT3_SPEC, plan, method="original")
        opt = sim.run(NT3_SPEC, plan, method="chunked")
        comp = compare_runs(orig, opt)
        assert comp.performance_improvement_pct > 0
        assert comp.energy_saving_pct > 0
        assert comp.power_increase_pct > 0
        row = comp.as_row()
        assert row["workers"] == 48

    def test_mismatched_runs_rejected(self):
        from repro.candle.nt3 import NT3_SPEC
        from repro.core.scaling import strong_scaling_plan
        from repro.sim import ScaledRunSimulator

        sim = ScaledRunSimulator("summit")
        a = sim.run(NT3_SPEC, strong_scaling_plan(NT3_SPEC, 6))
        b = sim.run(NT3_SPEC, strong_scaling_plan(NT3_SPEC, 12))
        with pytest.raises(ValueError, match="worker count"):
            compare_runs(a, b)


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(
            [{"a": 1, "b": 2.5}, {"a": 10, "b": 123456.0}], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_handles_missing_keys(self):
        text = format_table([{"a": 1}, {"a": 2, "b": 3}])
        assert "b" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_series(self):
        # a series is a table whose rows share the x column
        text = format_table([{"n": x, "y": y} for x, y in zip([1, 2], [10, 20])])
        assert "n" in text and "10" in text


class TestEnergyHelpers:
    def test_power_increase_pct_zero_original_rejected(self):
        # regression: divided by zero instead of reporting the data error
        comp = EnergyComparison(
            nworkers=4,
            original_total_s=10.0, optimized_total_s=8.0,
            original_energy_j=100.0, optimized_energy_j=80.0,
            original_power_w=0.0, optimized_power_w=10.0,
        )
        with pytest.raises(ValueError, match="average power"):
            comp.power_increase_pct
