"""FaultPlan/FaultInjector: determinism, one-shot firing, hook filters."""

import pytest

from repro.resilience import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    TransientCollectiveError,
)


# -- specs -------------------------------------------------------------------
def test_spec_validation():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec("meteor", rank=0)
    with pytest.raises(ValueError, match="step-level"):
        FaultSpec("crash", rank=0, step=3)
    with pytest.raises(ValueError, match="rank"):
        FaultSpec("crash", rank=-1)


def test_describe_names_location():
    assert "rank start" in FaultSpec("crash", rank=2).describe()
    spec = FaultSpec("collective", rank=1, epoch=3)
    assert "epoch 3" in spec.describe()


# -- plans -------------------------------------------------------------------
def test_random_plan_is_seed_reproducible():
    a = FaultPlan.random(nranks=8, epochs=10, n_faults=12, seed=7)
    b = FaultPlan.random(nranks=8, epochs=10, n_faults=12, seed=7)
    assert a.specs == b.specs
    assert a.seed == 7
    c = FaultPlan.random(nranks=8, epochs=10, n_faults=12, seed=8)
    assert a.specs != c.specs


def test_random_plan_respects_bounds():
    plan = FaultPlan.random(nranks=4, epochs=5, n_faults=50, seed=0)
    for spec in plan:
        assert spec.kind in FAULT_KINDS
        assert 0 <= spec.rank < 4
        assert 0 <= spec.epoch < 5


def test_single_crash_plan():
    plan = FaultPlan.single_crash(rank=2, epoch=1)
    (spec,) = plan.specs
    assert (spec.kind, spec.rank, spec.epoch) == ("crash", 2, 1)


# -- injector ----------------------------------------------------------------
def test_transient_crash_fires_exactly_once():
    injector = FaultInjector(FaultPlan.single_crash(rank=0, epoch=1))
    with pytest.raises(InjectedCrash):
        injector.on_epoch_end(0, 1)
    injector.next_attempt()
    injector.on_epoch_end(0, 1)  # consumed: no raise on the retry
    assert len(injector.history) == 1


def test_collective_fault_is_transient_error():
    injector = FaultInjector(
        FaultPlan(specs=(FaultSpec("collective", rank=0, epoch=2),))
    )
    with pytest.raises(TransientCollectiveError):
        injector.on_epoch_end(0, 2)


def test_rank_start_faults_have_no_epoch():
    injector = FaultInjector(FaultPlan(specs=(FaultSpec("crash", rank=1),)))
    injector.on_rank_start(0)  # other ranks unaffected
    with pytest.raises(InjectedCrash):
        injector.on_rank_start(1)
    # an epoch-level hook never fires an epoch=None spec
    injector2 = FaultInjector(FaultPlan(specs=(FaultSpec("crash", rank=1),)))
    injector2.on_epoch_end(1, 0)


def test_stall_fires_at_epoch_begin_without_raising():
    injector = FaultInjector(
        FaultPlan(specs=(FaultSpec("stall", rank=0, epoch=1, delay_s=0.0),))
    )
    injector.on_epoch_end(0, 1)  # epoch end fires crashes and collectives only
    assert injector.history == []
    injector.on_epoch_begin(0, 1)
    assert [f.spec.kind for f in injector.history] == ["stall"]
    # one-shot: a second pass over the same epoch is silent
    injector.on_epoch_begin(0, 1)
    assert len(injector.history) == 1


def test_fired_keys_reproducible_across_identical_runs():
    plan = FaultPlan(
        specs=tuple(
            spec
            for spec in FaultPlan.random(nranks=3, epochs=4, n_faults=12, seed=11)
            if spec.kind == "stall"
        ),
        seed=11,
    )
    assert len(plan) > 1

    def drive(injector):
        for rank in range(3):
            for epoch in range(4):
                injector.on_epoch_begin(rank, epoch)
                injector.on_epoch_end(rank, epoch)
        return injector.history

    assert drive(FaultInjector(plan)) == drive(FaultInjector(plan))
