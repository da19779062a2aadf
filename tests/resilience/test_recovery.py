"""Resilient runs: bit-exact resume, backoff, elastic shrink, give-up."""

import json

import pytest

from repro.candle import get_benchmark
from repro.comms import CollectiveEngine
from repro.core.scaling import strong_scaling_plan
from repro.mpi.runtime import SpmdError
from repro.resilience import (
    FaultPlan,
    RetryPolicy,
    replan_for_world,
    run_resilient_benchmark,
)
from repro.telemetry import Tracer, tracing


@pytest.fixture(scope="module")
def bench():
    return get_benchmark("p1b2", scale=0.05, sample_scale=0.2)


def _plan(bench, nworkers=2, total_epochs=8):
    return strong_scaling_plan(
        bench.spec, nworkers=nworkers, total_epochs=total_epochs
    )


# -- RetryPolicy -------------------------------------------------------------
def test_retry_policy_caps_exponential_backoff():
    policy = RetryPolicy(max_retries=5, base_delay_s=0.1, factor=2.0, max_delay_s=0.5)
    assert [policy.delay_s(a) for a in range(5)] == [0.1, 0.2, 0.4, 0.5, 0.5]
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(factor=0.5)


# -- replanning --------------------------------------------------------------
def test_replan_strong_repartitions_and_rescales_lr(bench):
    plan = _plan(bench, nworkers=4, total_epochs=8)
    shrunk = replan_for_world(plan, 3, original_plan=plan)
    assert shrunk.nworkers == 3
    # the original 8-epoch budget balanced over 3 survivors; the
    # balancing rule floors the remainder (8 // 3 == 2)
    assert shrunk.epochs_per_worker == 2
    # linear LR rule from the per-worker base rate
    base_lr = plan.learning_rate / plan.nworkers
    assert shrunk.learning_rate == pytest.approx(base_lr * 3)


def test_replan_rejects_empty_world(bench):
    with pytest.raises(ValueError):
        replan_for_world(_plan(bench), 0)


# -- the supervised run ------------------------------------------------------
def test_recovery_is_bit_exact_vs_uninterrupted(tmp_path, bench):
    """The acceptance criterion: crash, resume, same final loss bit-for-bit."""
    _assert_resume_is_bit_exact(tmp_path, bench)


def test_recovery_is_bit_exact_vs_uninterrupted_under_adam(tmp_path, monkeypatch):
    """P1B1 trains with Adam: the resumed run must carry the step count
    (bias correction) through the owner step bit for bit."""
    owner_steps = []
    real = CollectiveEngine.allreduce_update

    def counting(self, *args, **kwargs):
        owner_steps.append(self.comm.rank)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(CollectiveEngine, "allreduce_update", counting)
    p1b1 = get_benchmark("p1b1", scale=0.01, sample_scale=0.05)
    assert p1b1.spec.optimizer == "adam"
    _assert_resume_is_bit_exact(tmp_path, p1b1)
    assert owner_steps


def _assert_resume_is_bit_exact(tmp_path, bench):
    plan = _plan(bench)
    clean = run_resilient_benchmark(
        bench, plan, tmp_path / "clean", seed=0, every_n_epochs=2
    )
    faulted = run_resilient_benchmark(
        bench,
        plan,
        tmp_path / "faulted",
        seed=0,
        every_n_epochs=2,
        fault_plan=FaultPlan.single_crash(rank=1, epoch=2),
        retry=RetryPolicy(max_retries=2, base_delay_s=0.0),
    )
    assert clean.nattempts == 1 and not clean.recovered
    assert faulted.recovered
    assert [a.status for a in faulted.attempts] == ["failed", "completed"]
    # resumed from the epoch-1 checkpoint (crash fired at end of epoch 2)
    assert faulted.attempts[-1].start_epoch == 2
    assert faulted.final_loss == clean.final_loss
    assert faulted.eval_metrics == clean.eval_metrics


def test_backoff_sequence_follows_policy(tmp_path, bench):
    delays = []
    run_resilient_benchmark(
        bench,
        _plan(bench),
        tmp_path,
        seed=0,
        fault_plan=FaultPlan(
            specs=(
                FaultPlan.single_crash(rank=0, epoch=0).specs[0],
                FaultPlan.single_crash(rank=1, epoch=1).specs[0],
            )
        ),
        retry=RetryPolicy(max_retries=3, base_delay_s=0.125, factor=2.0),
        sleep=delays.append,
    )
    assert delays == [0.125, 0.25]


def test_permanent_death_shrinks_world(tmp_path, bench):
    plan = _plan(bench, nworkers=2, total_epochs=8)
    result = run_resilient_benchmark(
        bench,
        plan,
        tmp_path,
        seed=0,
        every_n_epochs=2,
        fault_plan=FaultPlan.single_crash(rank=1, epoch=1, permanent=True),
        retry=RetryPolicy(max_retries=2, base_delay_s=0.0),
    )
    assert result.dead_ranks == [1]
    assert result.shrunk and result.final_world == 1
    # the survivor inherits the full original epoch budget
    assert result.final_plan.epochs_per_worker == 8
    assert result.final_plan.learning_rate == pytest.approx(
        plan.learning_rate / 2
    )
    assert result.attempts[-1].status == "completed"


def test_retry_budget_exhaustion_reraises(tmp_path, bench):
    crash_every_epoch = FaultPlan(
        specs=tuple(
            FaultPlan.single_crash(rank=0, epoch=e).specs[0] for e in range(4)
        )
    )
    with pytest.raises(SpmdError) as exc:
        run_resilient_benchmark(
            bench,
            _plan(bench),
            tmp_path,
            seed=0,
            fault_plan=crash_every_epoch,
            retry=RetryPolicy(max_retries=1, base_delay_s=0.0),
        )
    assert exc.value.failed_ranks == [0]


def test_no_shrink_when_disallowed(tmp_path, bench):
    with pytest.raises(SpmdError):
        run_resilient_benchmark(
            bench,
            _plan(bench),
            tmp_path,
            seed=0,
            fault_plan=FaultPlan.single_crash(rank=1, epoch=1, permanent=True),
            retry=RetryPolicy(max_retries=3, base_delay_s=0.0),
            allow_shrink=False,
        )


def test_failed_attempts_record_the_epoch_they_resumed_from(tmp_path, bench):
    result = run_resilient_benchmark(
        bench,
        _plan(bench),
        tmp_path,
        seed=0,
        every_n_epochs=1,
        fault_plan=FaultPlan(
            specs=(
                FaultPlan.single_crash(rank=0, epoch=1).specs[0],
                FaultPlan.single_crash(rank=1, epoch=2).specs[0],
            )
        ),
        retry=RetryPolicy(max_retries=2, base_delay_s=0.0),
    )
    assert [a.status for a in result.attempts] == ["failed", "failed", "completed"]
    assert [a.start_epoch for a in result.attempts] == [0, 2, 3]


def test_resumes_from_a_checkpoint_missing_from_the_manifest(tmp_path, bench):
    """A crash between a checkpoint's file write and its manifest write
    leaves the file unrecorded; rank 0 still restores it, so the next
    run must start after it, not after the newest recorded one."""
    clean = run_resilient_benchmark(
        bench, _plan(bench, total_epochs=12), tmp_path / "clean", seed=0
    )
    run_resilient_benchmark(bench, _plan(bench, total_epochs=8), tmp_path, seed=0)
    manifest = tmp_path / "MANIFEST.json"
    entries = json.loads(manifest.read_text())
    del entries["ckpt-000003.npz"]
    manifest.write_text(json.dumps(entries))

    resumed = run_resilient_benchmark(
        bench, _plan(bench, total_epochs=12), tmp_path, seed=0
    )
    assert [(a.status, a.start_epoch) for a in resumed.attempts] == [("completed", 4)]
    assert len(resumed.history["loss"]) == 2
    assert resumed.eval_metrics == clean.eval_metrics


def test_ranks_record_into_the_active_tracer(tmp_path, bench):
    tracer = Tracer(run_id="resilient")
    with tracing(tracer):
        run_resilient_benchmark(bench, _plan(bench), tmp_path, seed=0, every_n_epochs=2)
    assert {s.rank for s in tracer.spans_named("train")} == {0, 1}
    assert {s.rank for s in tracer.spans_named("negotiate_allreduce")} == {0, 1}
    assert tracer.spans_named("checkpoint.save")
