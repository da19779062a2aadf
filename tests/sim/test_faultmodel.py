"""MTBF process, Young/Daly optimum, and the resilient run simulator."""

import math

import pytest

from repro.candle.nt3 import NT3_SPEC
from repro.cluster.machine import SUMMIT
from repro.core.scaling import strong_scaling_plan
from repro.sim.engine import PhaseSimulator
from repro.sim.faultmodel import (
    FailureModel,
    MtbfFailureProcess,
    ResilientRunSimulator,
    checkpoint_write_seconds,
    daly_interval,
    expected_makespan,
    simulate_resilient_run,
    young_daly_interval,
)


# -- failure process ---------------------------------------------------------
def test_job_mtbf_scales_inversely_with_ranks():
    proc = MtbfFailureProcess(mtbf_rank_s=3600.0, nranks=100)
    assert proc.job_mtbf_s == pytest.approx(36.0)
    assert proc.expected_failures(3600.0) == pytest.approx(100.0)


def test_arrivals_are_seeded_and_monotone():
    a = MtbfFailureProcess(1000.0, 10, seed=3)
    b = MtbfFailureProcess(1000.0, 10, seed=3)
    t = 0.0
    for _ in range(20):
        t_a = a.next_failure_after(t)
        assert t_a == b.next_failure_after(t)
        assert t_a > t
        t = t_a
    c = MtbfFailureProcess(1000.0, 10, seed=4)
    assert c.next_failure_after(0.0) != MtbfFailureProcess(
        1000.0, 10, seed=3
    ).next_failure_after(0.0)


def test_process_validation():
    with pytest.raises(ValueError):
        MtbfFailureProcess(0.0, 4)
    with pytest.raises(ValueError):
        MtbfFailureProcess(100.0, 0)
    with pytest.raises(ValueError):
        MtbfFailureProcess(100.0, 4).expected_failures(-1.0)


# -- Young/Daly --------------------------------------------------------------
def test_young_daly_formula():
    assert young_daly_interval(30.0, 3600.0) == pytest.approx(
        math.sqrt(2 * 30.0 * 3600.0)
    )
    with pytest.raises(ValueError):
        young_daly_interval(0.0, 100.0)


def test_daly_interval_minimizes_expected_makespan():
    """The acceptance-criterion unit test: the closed-form optimum sits at
    the numeric argmin of Daly's expected-makespan model."""
    C, M, R, W = 30.0, 3600.0, 60.0, 7 * 24 * 3600.0
    opt = daly_interval(C, M)
    grid = [opt * (0.2 + 0.005 * i) for i in range(800)]
    numeric = min(grid, key=lambda t: expected_makespan(W, t, C, M, R))
    assert opt == pytest.approx(numeric, rel=0.02)
    # and it beats both a much shorter and a much longer interval
    at_opt = expected_makespan(W, opt, C, M, R)
    assert at_opt < expected_makespan(W, opt / 4, C, M, R)
    assert at_opt < expected_makespan(W, opt * 4, C, M, R)


def test_makespan_exceeds_work_and_grows_with_failure_rate():
    W = 3600.0
    base = expected_makespan(W, 300.0, 10.0, 86400.0)
    assert base > W
    assert expected_makespan(W, 300.0, 10.0, 8640.0) > base


def test_degenerate_daly_regime_falls_back_to_mtbf():
    # C >= 2M: the expansion is invalid; policy degrades to tau = M
    assert daly_interval(100.0, 40.0) == 40.0


# -- checkpoint cost ---------------------------------------------------------
def test_checkpoint_write_cost_scales_with_model_size():
    import dataclasses

    c = checkpoint_write_seconds(NT3_SPEC, SUMMIT)
    assert c > SUMMIT.parse.per_file  # payload adds to metadata latency
    bigger = dataclasses.replace(
        NT3_SPEC, model_params_full=NT3_SPEC.model_params_full * 10
    )
    assert checkpoint_write_seconds(bigger, SUMMIT) > c


# -- PhaseSimulator hook -----------------------------------------------------
def test_phase_simulator_failure_hook():
    sim = PhaseSimulator(4)
    assert sim.next_failure() is None
    assert sim.expected_failures() == 0.0
    armed = PhaseSimulator(4, failure_process=MtbfFailureProcess(100.0, 4, seed=0))
    t = armed.next_failure()
    assert t is not None and t > 0
    armed.lockstep(t + 1.0, "train", 100.0)
    assert armed.next_failure() > t
    assert armed.expected_failures() > 0


# -- resilient run simulator -------------------------------------------------
@pytest.fixture(scope="module")
def plan():
    return strong_scaling_plan(NT3_SPEC, nworkers=1536, total_epochs=6144)


def test_no_failures_no_checkpoints_means_zero_overhead(plan):
    fm = FailureModel(mtbf_rank_s=1e15)
    rep = ResilientRunSimulator(SUMMIT, fm).run(
        NT3_SPEC, plan, interval_s=1e12, seed=0
    )
    assert rep.n_failures == 0 and rep.n_checkpoints == 0
    assert rep.time_overhead_s == pytest.approx(0.0, abs=1e-6)
    assert rep.energy_overhead_pct == pytest.approx(0.0, abs=1e-6)


def test_resilient_run_is_seed_deterministic(plan):
    fm = FailureModel(mtbf_rank_s=7 * 24 * 3600.0, restart_s=60.0)
    a = ResilientRunSimulator(SUMMIT, fm).run(NT3_SPEC, plan, seed=5)
    b = ResilientRunSimulator(SUMMIT, fm).run(NT3_SPEC, plan, seed=5)
    assert a.total_s == b.total_s
    assert a.n_failures == b.n_failures
    assert a.energy_per_worker_j == b.energy_per_worker_j


def test_failures_cost_time_and_energy(plan):
    fm = FailureModel(mtbf_rank_s=24 * 3600.0, restart_s=60.0)
    rep = simulate_resilient_run(NT3_SPEC, SUMMIT, plan, fm, seed=1)
    assert rep.n_failures >= 1
    assert rep.total_s > rep.base_total_s
    assert rep.energy_per_worker_j > rep.base_energy_per_worker_j
    assert rep.lost_work_s > 0
    assert rep.interval_s == pytest.approx(
        young_daly_interval(rep.checkpoint_s, rep.job_mtbf_s)
    )
    row = rep.as_row()
    assert row["failures"] == rep.n_failures


def test_failure_model_validation():
    with pytest.raises(ValueError):
        FailureModel(mtbf_rank_s=0.0)
    with pytest.raises(ValueError):
        FailureModel(mtbf_rank_s=100.0, restart_s=-1.0)
    with pytest.raises(ValueError):
        FailureModel(mtbf_rank_s=100.0).job_mtbf_s(0)


# -- fault-tolerant collectives pricing ---------------------------------------
def test_ft_detection_seconds_matches_detector_inverse():
    from repro.comms.ft import FaultToleranceOptions
    from repro.comms.ft.detector import MIN_STD_S, PhiAccrualDetector
    from repro.sim.faultmodel import ft_detection_seconds

    d = ft_detection_seconds()
    assert 0 < d < 2.0
    fto = FaultToleranceOptions(heartbeat_interval_s=0.1, phi_dead=10.0)
    det = PhiAccrualDetector(
        bootstrap_interval_s=fto.heartbeat_interval_s,
        phi_dead=fto.phi_dead,
        min_std_s=MIN_STD_S,
        acceptable_pause_s=3 * fto.heartbeat_interval_s,
    )
    assert ft_detection_seconds(fto) == pytest.approx(
        det.detection_latency_s(fto.phi_dead)
    )
    # slower heartbeats detect later, all else equal
    slower = fto.evolve(heartbeat_interval_s=0.4)
    assert ft_detection_seconds(slower) > ft_detection_seconds(fto)


def test_ft_rebuild_cost_scales_with_world_and_gradient():
    import dataclasses

    from repro.sim.faultmodel import ft_rebuild_seconds

    small = ft_rebuild_seconds(NT3_SPEC, 96, SUMMIT.fabric)
    assert small > 0
    assert ft_rebuild_seconds(NT3_SPEC, 1536, SUMMIT.fabric) > small
    bigger = dataclasses.replace(
        NT3_SPEC, model_params_full=NT3_SPEC.model_params_full * 20
    )
    assert ft_rebuild_seconds(bigger, 96, SUMMIT.fabric) > small
    # a 2-rank world has one survivor: no collective left to rebuild
    assert ft_rebuild_seconds(NT3_SPEC, 2, SUMMIT.fabric) == 0.0


def test_elastic_mode_beats_restart_under_failures(plan):
    from repro.comms.ft import DEFAULT_FT_OPTIONS

    fm = FailureModel(mtbf_rank_s=24 * 3600.0, restart_s=60.0)
    restart = ResilientRunSimulator(SUMMIT, fm).run(NT3_SPEC, plan, seed=1)
    elastic = ResilientRunSimulator(SUMMIT, fm).run(
        NT3_SPEC, plan, seed=1, ft_options=DEFAULT_FT_OPTIONS
    )
    assert restart.n_failures >= 1
    assert elastic.n_rebuilds >= 1
    # elastic keeps the partial segment and skips restart + rework
    assert elastic.total_s < restart.total_s
    assert elastic.lost_work_s < restart.lost_work_s
    assert elastic.detection_time_s > 0
    assert elastic.rebuild_time_s > 0
    # recovery latency beats the checkpoint-restore path it replaces
    per_event_recovery = (
        elastic.detection_time_s + elastic.rebuild_time_s
    ) / elastic.n_rebuilds
    assert per_event_recovery < fm.restart_s + restart.checkpoint_s


def test_elastic_mode_is_seed_deterministic(plan):
    from repro.comms.ft import DEFAULT_FT_OPTIONS

    fm = FailureModel(mtbf_rank_s=24 * 3600.0, restart_s=60.0)
    a = ResilientRunSimulator(SUMMIT, fm).run(
        NT3_SPEC, plan, seed=3, ft_options=DEFAULT_FT_OPTIONS
    )
    b = ResilientRunSimulator(SUMMIT, fm).run(
        NT3_SPEC, plan, seed=3, ft_options=DEFAULT_FT_OPTIONS
    )
    assert a.total_s == b.total_s and a.n_rebuilds == b.n_rebuilds


# -- overhead-percentage guards (regression: raised ZeroDivisionError) -------
def _degenerate_report(plan, base_total_s, base_energy_j):
    from repro.sim.faultmodel import ResilientSimReport

    return ResilientSimReport(
        machine="Summit", benchmark="nt3", plan=plan,
        interval_s=60.0, checkpoint_s=1.0, job_mtbf_s=3600.0,
        base_total_s=base_total_s, base_energy_per_worker_j=base_energy_j,
        total_s=100.0, energy_per_worker_j=5000.0,
        n_failures=0, n_checkpoints=0, checkpoint_time_s=0.0,
        lost_work_s=0.0, restart_time_s=0.0, phase_seconds={},
    )


def test_time_overhead_pct_zero_baseline_rejected(plan):
    rep = _degenerate_report(plan, base_total_s=0.0, base_energy_j=5000.0)
    with pytest.raises(ValueError, match="base total time"):
        rep.time_overhead_pct


def test_energy_overhead_pct_zero_baseline_rejected(plan):
    rep = _degenerate_report(plan, base_total_s=100.0, base_energy_j=0.0)
    with pytest.raises(ValueError, match="base energy"):
        rep.energy_overhead_pct
