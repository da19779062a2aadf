"""Parameter-server baseline: semantics and cost shape."""

import numpy as np
import pytest

from repro.mpi.network import CollectiveCostModel
from repro.nn import SGD, Activation, Dense, Sequential
from repro.ps import PsCostModel, run_parameter_server_training
from repro.cluster.machine import SUMMIT
from tests.hvd.step_oracle import oracle


def _data(seed=0, n=120, f=6):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, f))
    y = np.eye(2)[(x[:, 0] > 0).astype(int)]
    return x, y


def _builder(seed=3, lr=0.1):
    def build():
        m = Sequential([Dense(5, activation="tanh"), Dense(2), Activation("softmax")])
        m.build((6,), seed=seed)
        m.compile(SGD(lr=lr), "categorical_crossentropy")
        return m

    return build


class TestFunctionalPs:
    def test_sync_training_reduces_loss(self):
        x, y = _data()
        res = run_parameter_server_training(
            nworkers=3, build_model=_builder(), data=(x, y), steps=30, batch_size=30
        )
        assert res.mode == "sync"
        assert res.server_updates == 30
        assert np.mean(res.losses[-5:]) < np.mean(res.losses[:5])

    def test_sync_matches_allreduce_semantics(self):
        """One synchronous PS step == one Horovod step: the serial oracle
        on the batches the two PS workers (ranks 1 and 2) sample."""
        x, y = _data(n=8)
        builder = _builder(lr=0.5)
        ps = run_parameter_server_training(
            nworkers=2, build_model=builder, data=(x, y), steps=1,
            batch_size=len(x),
        )
        batches = []
        for rank in (1, 2):
            idx = np.random.default_rng(rank).integers(0, len(x), size=len(x))
            batches.append((x[idx], y[idx]))
        model = builder()
        oracle(model, SGD(lr=0.5), batches, batch=len(x))
        for name, want in model.named_parameters().items():
            assert np.array_equal(ps.final_weights[name], want), name

    def test_async_applies_every_push(self):
        x, y = _data()
        res = run_parameter_server_training(
            nworkers=3, build_model=_builder(), data=(x, y), steps=10,
            batch_size=30, mode="async",
        )
        assert res.server_updates == 30  # 3 workers x 10 pushes
        assert np.isfinite(res.losses).all()

    def test_async_still_learns(self):
        x, y = _data()
        res = run_parameter_server_training(
            nworkers=2, build_model=_builder(lr=0.05), data=(x, y), steps=40,
            batch_size=40, mode="async",
        )
        assert np.mean(res.losses[-5:]) < np.mean(res.losses[:5])

    def test_validation(self):
        x, y = _data()
        with pytest.raises(ValueError):
            run_parameter_server_training(0, _builder(), (x, y), steps=1, batch_size=4)
        with pytest.raises(ValueError):
            run_parameter_server_training(
                2, _builder(), (x, y), steps=1, batch_size=4, mode="gossip"
            )
        with pytest.raises(ValueError):
            run_parameter_server_training(2, _builder(), (x, y), steps=0, batch_size=4)


class TestCostModel:
    def test_ps_step_linear_in_workers(self):
        ps = PsCostModel(SUMMIT.fabric)
        t6 = ps.step_seconds(64 << 20, 6)
        t384 = ps.step_seconds(64 << 20, 384)
        assert t384 / t6 == pytest.approx(64.0, rel=0.05)

    def test_allreduce_beats_ps_at_scale(self):
        """The Horovod argument: ring wins once workers multiply."""
        ps = PsCostModel(SUMMIT.fabric)
        ring = CollectiveCostModel(SUMMIT.fabric, ranks_per_node=6)
        nbytes = 64 << 20
        assert ring.allreduce_hierarchical(nbytes, 384) < ps.step_seconds(nbytes, 384)
        crossover = ps.crossover_workers(nbytes, ring)
        assert crossover <= 12  # ring wins early for 64 MB gradients

    def test_sharding_divides_volume_not_shape(self):
        one = PsCostModel(SUMMIT.fabric, nshards=1)
        four = PsCostModel(SUMMIT.fabric, nshards=4)
        assert four.step_seconds(64 << 20, 96) < one.step_seconds(64 << 20, 96)
        # still linear
        assert four.step_seconds(64 << 20, 192) > 1.9 * four.step_seconds(64 << 20, 96)

    def test_validation(self):
        with pytest.raises(ValueError):
            PsCostModel(SUMMIT.fabric, nshards=0)
        with pytest.raises(ValueError):
            PsCostModel(SUMMIT.fabric).step_seconds(1024, 0)


def test_worker_failure_aborts_cleanly():
    """A dying worker must not deadlock the server (gRPC-retry analog)."""
    from repro.mpi.runtime import SpmdError

    x, y = _data()
    calls = {"n": 0}

    def build():
        calls["n"] += 1
        if calls["n"] >= 3:  # third node (a worker thread) blows up
            raise RuntimeError("worker init failure")
        return _builder()()

    with pytest.raises(SpmdError):
        run_parameter_server_training(
            nworkers=2, build_model=build, data=(x, y), steps=5, batch_size=16
        )
