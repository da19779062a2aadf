"""TrainOptions: validation and the one ``train=`` call form."""

import numpy as np
import pytest

from repro.comms import CollectiveOptions
from repro.comms.ft import FaultToleranceOptions
from repro.nn import Dense, Sequential
from repro.nn.optimizers import SGD
from repro.train import DEFAULT_TRAIN_OPTIONS, TrainOptions


class TestValidation:
    def test_defaults_reproduce_pre_existing_behaviour(self):
        t = DEFAULT_TRAIN_OPTIONS
        assert t.arena is True
        assert t.dtype is None
        assert t.collective is None
        assert t.overlap is False

    def test_kwonly_and_frozen(self):
        with pytest.raises(TypeError):
            TrainOptions(True)  # noqa: the positional form must not exist
        t = TrainOptions()
        with pytest.raises(AttributeError):
            t.overlap = True

    def test_dtype_normalized_and_validated(self):
        assert TrainOptions(dtype="float32").dtype == np.dtype(np.float32)
        with pytest.raises(ValueError, match="floating"):
            TrainOptions(dtype=np.int32)

    def test_rejects_wrong_types(self):
        with pytest.raises(ValueError, match="CollectiveOptions"):
            TrainOptions(collective={"fusion_bytes": 4})

    def test_overlap_requires_arena(self):
        with pytest.raises(ValueError, match="arena"):
            TrainOptions(overlap=True, arena=False)

    def test_overlap_channels_bounds(self):
        with pytest.raises(ValueError, match="overlap_channels"):
            TrainOptions(overlap_channels=0)
        with pytest.raises(ValueError, match="overlap_channels"):
            TrainOptions(overlap_channels=17)

    def test_fault_tolerance_rides_on_the_collective(self):
        fto = FaultToleranceOptions()
        t = TrainOptions(collective=CollectiveOptions(fault_tolerance=fto))
        assert t.collective.fault_tolerance is fto
        with pytest.raises(TypeError, match="fault_tolerance"):
            TrainOptions(fault_tolerance=fto)

    def test_evolve(self):
        t = TrainOptions().evolve(overlap=True, overlap_channels=3)
        assert t.overlap and t.overlap_channels == 3
        assert DEFAULT_TRAIN_OPTIONS.overlap is False  # original untouched


class TestShims:
    """Where the keyword shims stood: ``train=`` is the one form, and a
    removed keyword raises rather than binding to the wrong parameter."""

    def test_build_model_train_is_silent(self):
        from repro.candle import get_benchmark

        bench = get_benchmark("nt3", scale=0.004, sample_scale=0.05)
        model = bench.build_model(train=TrainOptions(dtype="float32"))
        assert model.arena is not None
        assert model.dtype == np.dtype(np.float32)

    def test_build_rejects_both_forms(self):
        model = Sequential([Dense(2)])
        with pytest.raises(TypeError, match="arena"):
            model.build((3,), train=TrainOptions(), arena=False)

    @pytest.mark.parametrize("keyword", ["arena", "dtype", "collective"])
    def test_removed_keyword_raises(self, keyword):
        from repro.candle import get_benchmark
        from repro.core.parallel import run_parallel_benchmark
        from repro.core.scaling import strong_scaling_plan

        bench = get_benchmark("nt3", scale=0.004, sample_scale=0.1)
        plan = strong_scaling_plan(bench.spec, 1, total_epochs=1)
        value = {"arena": False, "dtype": "float32", "collective": CollectiveOptions()}
        for call in (
            lambda **kw: Sequential([Dense(2)]).build((3,), **kw),
            bench.build_model,
            lambda **kw: run_parallel_benchmark(bench, plan, seed=3, **kw),
        ):
            with pytest.raises(TypeError, match=keyword):
                call(**{keyword: value[keyword]})

    def test_single_rank_fit_with_overlap_falls_back(self):
        """overlap=True on one rank: no scheduler, training still runs."""
        from repro import hvd

        hvd.init()
        try:
            model = Sequential([Dense(4, activation="relu"), Dense(2)])
            train = TrainOptions(overlap=True)
            model.build((6,), seed=0, train=train)
            model.compile(
                hvd.DistributedOptimizer(SGD(lr=0.1), train=train), "mse"
            )
            rng = np.random.default_rng(0)
            x = rng.normal(size=(16, 6))
            y = rng.normal(size=(16, 2))
            model.fit(x, y, batch_size=8, epochs=1, train=train)
            assert model.last_overlap_stats is None
            assert model._overlap is None
        finally:
            hvd.shutdown()
