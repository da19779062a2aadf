"""The paper-scale run simulator and its calibration anchors."""

import pytest

from repro.analysis.energy import compare_runs
from repro.candle.nt3 import NT3_SPEC
from repro.candle.p1b1 import P1B1_SPEC
from repro.core.scaling import strong_scaling_plan, weak_scaling_plan
from repro.sim import (
    ScaledRunSimulator,
    calibration_report,
    improvement_percent,
)


@pytest.fixture(scope="module")
def summit():
    return ScaledRunSimulator("summit")


class TestRunStructure:
    def test_report_phases_positive_and_total_consistent(self, summit):
        plan = strong_scaling_plan(NT3_SPEC, 48)
        r = summit.run(NT3_SPEC, plan)
        assert r.load_s > 0 and r.train_compute_s > 0 and r.eval_s > 0
        assert r.total_s == pytest.approx(
            r.load_s + r.broadcast_wait_s + r.broadcast_s + r.train_s + r.eval_s
        )

    def test_single_worker_no_communication(self, summit):
        plan = strong_scaling_plan(NT3_SPEC, 1)
        r = summit.run(NT3_SPEC, plan)
        assert r.train_comm_s == 0.0
        assert r.broadcast_s == 0.0
        assert r.broadcast_wait_s == 0.0

    def test_deterministic_given_seed(self, summit):
        plan = strong_scaling_plan(NT3_SPEC, 96)
        a = summit.run(NT3_SPEC, plan, seed=3)
        b = summit.run(NT3_SPEC, plan, seed=3)
        assert a.total_s == b.total_s
        assert a.energy_per_worker_j == b.energy_per_worker_j

    def test_timeline_and_profiles_attached(self, summit):
        plan = strong_scaling_plan(NT3_SPEC, 24)
        r = summit.run(NT3_SPEC, plan)
        assert len(r.tracer.spans) > 0
        assert len(r.profiles) >= 1
        r2 = summit.run(NT3_SPEC, plan, keep_profiles=False)
        assert r2.tracer is None

    def test_machine_accepts_spec_object(self):
        from repro.cluster.machine import THETA

        plan = strong_scaling_plan(NT3_SPEC, 24)
        r = ScaledRunSimulator(THETA).run(NT3_SPEC, plan)
        assert r.machine == "Theta"

    def test_benchmark_by_name(self, summit):
        plan = strong_scaling_plan(NT3_SPEC, 6)
        assert summit.run("nt3", plan).benchmark == "NT3"


class TestPaperShapes:
    def test_training_time_shrinks_with_strong_scaling(self, summit):
        ts = [
            summit.run(NT3_SPEC, strong_scaling_plan(NT3_SPEC, n)).train_s
            for n in (1, 24, 384)
        ]
        assert ts[0] > ts[1] > ts[2]

    def test_loading_dominates_at_scale(self, summit):
        r = summit.run(NT3_SPEC, strong_scaling_plan(NT3_SPEC, 384))
        assert r.load_s > r.train_s

    def test_time_per_epoch_grows_with_workers(self, summit):
        small = summit.run(NT3_SPEC, weak_scaling_plan(NT3_SPEC, 6))
        large = summit.run(NT3_SPEC, weak_scaling_plan(NT3_SPEC, 3072))
        assert large.time_per_epoch_s > 1.5 * small.time_per_epoch_s

    def test_optimized_loader_improves_and_raises_power(self, summit):
        plan = strong_scaling_plan(NT3_SPEC, 384)
        orig = summit.run(NT3_SPEC, plan, method="original")
        opt = summit.run(NT3_SPEC, plan, method="chunked")
        assert opt.total_s < orig.total_s
        assert opt.energy_per_worker_j < orig.energy_per_worker_j
        assert opt.avg_power_w > orig.avg_power_w

    def test_broadcast_wait_shrinks_with_optimized_loading(self, summit):
        plan = strong_scaling_plan(NT3_SPEC, 384)
        orig = summit.run(NT3_SPEC, plan, method="original")
        opt = summit.run(NT3_SPEC, plan, method="chunked")
        assert opt.broadcast_wait_s < 0.4 * orig.broadcast_wait_s

    def test_p1b1_biggest_winner(self, summit):
        """P1B1 (largest files) gains the most from the fix (§5.2)."""
        imps = {}
        for spec, n in ((NT3_SPEC, 96), (P1B1_SPEC, 96)):
            plan = strong_scaling_plan(spec, n)
            o = summit.run(spec, plan, "original")
            c = summit.run(spec, plan, "chunked")
            imps[spec.name] = improvement_percent(o.total_s, c.total_s)
        assert imps["P1B1"] > imps["NT3"]

    def test_theta_cached_loading_energy_saving_in_paper_band(self):
        """NT3 on Theta, original vs cached loading, strong scaling up
        to 3,072 ranks: the largest energy saving lands in the paper's
        70-85% band (its ~78% headline)."""
        theta = ScaledRunSimulator("theta")
        savings = []
        for n in (384, 1536, 3072):
            plan = strong_scaling_plan(NT3_SPEC, n)
            orig = theta.run(NT3_SPEC, plan, "original", keep_profiles=False)
            opt = theta.run(NT3_SPEC, plan, "cached", keep_profiles=False)
            savings.append(compare_runs(orig, opt).energy_saving_pct)
        assert 70.0 <= max(savings) <= 85.0, savings


class TestCalibration:
    def test_every_anchor_within_tolerance(self):
        rows = calibration_report()
        bad = [r for r in rows if not r["ok"]]
        assert not bad, f"anchors off: {bad}"

    def test_anchor_count_covers_tables(self):
        assert len(calibration_report()) >= 18


def test_improvement_percent():
    assert improvement_percent(100, 25) == 75.0
    assert improvement_percent(100, 100) == 0.0
    with pytest.raises(ValueError):
        improvement_percent(0, 1)


class TestOverlap:
    def test_overlap_reduces_exposed_comm(self):
        from repro.candle.nt3 import NT3_SPEC

        on = ScaledRunSimulator("summit", overlap=True)
        off = ScaledRunSimulator("summit", overlap=False)
        exposed = on.effective_step_comm_seconds(NT3_SPEC, 384, 20)
        full = off.effective_step_comm_seconds(NT3_SPEC, 384, 20)
        assert 0 < exposed < full

    def test_overlap_bounded_by_backward_pass(self):
        from repro.candle.nt3 import NT3_SPEC

        sim = ScaledRunSimulator("summit", overlap=True)
        full = sim.allreduce_step_seconds(NT3_SPEC, 384)
        exposed = sim.effective_step_comm_seconds(NT3_SPEC, 384, 20)
        backward = 2 / 3 * 20 * sim.compute.per_sample_seconds(NT3_SPEC)
        assert full - exposed <= backward + 1e-12

    def test_single_worker_no_comm_either_way(self):
        from repro.candle.nt3 import NT3_SPEC

        sim = ScaledRunSimulator("summit", overlap=True)
        assert sim.effective_step_comm_seconds(NT3_SPEC, 1, 20) == 0.0


class TestSeedRobustness:
    def test_broadcast_overhead_stable_across_seeds(self, summit):
        """The Fig 12 mechanism must not hinge on one lucky skew draw."""
        plan = strong_scaling_plan(NT3_SPEC, 384)
        waits = [
            summit.run(NT3_SPEC, plan, seed=s, keep_profiles=False).broadcast_wait_s
            for s in range(8)
        ]
        mean = sum(waits) / len(waits)
        assert all(abs(w - mean) < 0.25 * mean for w in waits), waits

    def test_improvement_percentage_stable_across_seeds(self, summit):
        plan = strong_scaling_plan(NT3_SPEC, 384)
        imps = []
        for s in range(5):
            o = summit.run(NT3_SPEC, plan, method="original", seed=s, keep_profiles=False)
            c = summit.run(NT3_SPEC, plan, method="chunked", seed=s, keep_profiles=False)
            imps.append(improvement_percent(o.total_s, c.total_s))
        assert max(imps) - min(imps) < 5.0, imps
