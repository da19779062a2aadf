"""The paper's methodology: epochs, batch scaling, LR scaling, plans."""

import pytest

from repro.candle.nt3 import NT3_SPEC
from repro.candle.p1b3 import P1B3_SPEC
from repro.core import (
    comp_epochs,
    comp_epochs_balanced,
    scale_batch_size,
    scale_learning_rate,
    strong_scaling_plan,
    weak_scaling_plan,
)
from repro.core.batch_scaling import BatchMemoryError, check_batch_fits, memory_limited_batch


def _schedule(total_epochs, nprocs):
    return [comp_epochs(total_epochs, r, nprocs) for r in range(nprocs)]


class TestCompEpochs:
    def test_matches_paper_pseudocode(self):
        # j = n // nprocs; last rank gets j + remainder
        assert comp_epochs(10, myrank=0, nprocs=3) == 3
        assert comp_epochs(10, myrank=1, nprocs=3) == 3
        assert comp_epochs(10, myrank=2, nprocs=3) == 4

    def test_schedule_sums_to_total(self):
        for n, p in [(384, 48), (768, 96), (10, 3), (5, 8)]:
            assert sum(_schedule(n, p)) == n

    def test_paper_configurations_divide_evenly(self):
        # 384 epochs / 384 GPUs = 1 each; /48 = 8 each
        assert _schedule(384, 384) == [1] * 384
        assert _schedule(384, 48) == [8] * 48

    def test_balanced_floors_at_one(self):
        assert comp_epochs_balanced(384, 384) == 1
        assert comp_epochs_balanced(1, 10) == 1
        assert comp_epochs_balanced(768, 48) == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            comp_epochs(10, myrank=3, nprocs=3)
        with pytest.raises(ValueError):
            comp_epochs(10, myrank=0, nprocs=0)
        with pytest.raises(ValueError):
            comp_epochs_balanced(0, 2)


class TestBatchScaling:
    def test_paper_formulas_at_48_gpus(self):
        # §4.2.4: linear 4800, sqrt int(100*sqrt(48))=692, cubic int(100*48^(1/3))=363
        assert scale_batch_size(100, 48, "linear") == 4800
        assert scale_batch_size(100, 48, "sqrt") == 692
        assert scale_batch_size(100, 48, "cubic") == 363

    def test_none_keeps_default(self):
        assert scale_batch_size(20, 384, "none") == 20

    def test_linear_at_paper_failure_points(self):
        assert scale_batch_size(100, 192, "linear") == 19200
        assert scale_batch_size(100, 384, "linear") == 38400

    def test_invalid(self):
        with pytest.raises(ValueError):
            scale_batch_size(100, 48, "quartic")
        with pytest.raises(ValueError):
            scale_batch_size(0, 48, "linear")
        with pytest.raises(ValueError):
            scale_batch_size(100, 0, "linear")

    def test_memory_limit_monotone(self):
        small = memory_limited_batch(60483, 1030.0, device_mem_gb=16.0)
        big = memory_limited_batch(60483, 1030.0, device_mem_gb=32.0)
        assert big > small

    def test_check_batch_fits_raises_oom(self):
        with pytest.raises(BatchMemoryError):
            check_batch_fits(50, 60483, 1030.0, device_mem_gb=16.0)
        check_batch_fits(40, 60483, 1030.0, device_mem_gb=16.0)  # no raise

    def test_no_memory_after_reserve(self):
        with pytest.raises(BatchMemoryError):
            memory_limited_batch(100, 1.0, device_mem_gb=2.0, reserve_gb=4.0)


class TestLrScaling:
    def test_linear_is_paper_rule(self):
        assert scale_learning_rate(0.001, 384) == pytest.approx(0.384)

    def test_sqrt_and_none(self):
        assert scale_learning_rate(0.001, 16, "sqrt") == pytest.approx(0.004)
        assert scale_learning_rate(0.001, 16, "none") == 0.001

    def test_invalid(self):
        with pytest.raises(ValueError):
            scale_learning_rate(-0.1, 2)
        with pytest.raises(ValueError):
            scale_learning_rate(0.1, 2, "cubic")


class TestPlans:
    def test_strong_scaling_splits_epochs(self):
        plan = strong_scaling_plan(NT3_SPEC, 48)
        assert plan.epochs_per_worker == 8
        assert plan.batch_size == 20
        assert plan.learning_rate == pytest.approx(0.048)
        assert plan.mode == "strong"
        assert plan.total_epochs == 384

    def test_weak_scaling_fixed_epochs(self):
        plan = weak_scaling_plan(NT3_SPEC, 3072)
        assert plan.epochs_per_worker == 8  # §6 default
        assert plan.total_epochs == 8 * 3072

    def test_plan_with_batch_strategy(self):
        plan = strong_scaling_plan(P1B3_SPEC, 48, batch_strategy="cubic")
        assert plan.batch_size == 363

    def test_none_lr_preserved(self):
        from repro.candle.p1b1 import P1B1_SPEC

        plan = strong_scaling_plan(P1B1_SPEC, 12)
        assert plan.learning_rate is None  # Adam default, Table 1 "none"

    def test_steps_accounting(self):
        plan = strong_scaling_plan(NT3_SPEC, 48)
        assert plan.steps_per_epoch(1120) == 56
        assert plan.total_steps(1120) == 8 * 56

    def test_plan_validation(self):
        from repro.core.scaling import ScalingPlan

        with pytest.raises(ValueError):
            ScalingPlan("X", "strong", 0, 1, 1, None)
        with pytest.raises(ValueError):
            ScalingPlan("X", "diagonal", 1, 1, 1, None)
