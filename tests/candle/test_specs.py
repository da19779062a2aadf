"""Benchmark specs: Table 1 fidelity and derived quantities."""

import numpy as np
import pytest

from repro import hvd
from repro.candle import all_benchmarks, get_benchmark
from repro.candle.base import BenchmarkSpec
from repro.candle.nt3 import NT3_SPEC
from repro.candle.p1b1 import P1B1_SPEC
from repro.candle.p1b2 import P1B2_SPEC
from repro.candle.p1b3 import P1B3_SPEC
from repro.comms import CollectiveOptions
from repro.comms.plan import plan_allreduce
from repro.comms.topology import Topology
from repro.mpi import Communicator, run_spmd
from repro.nn import DEFAULT_DTYPE, Adam

TABLE1 = {
    "NT3": dict(train_mb=597, test_mb=150, epochs=384, batch_size=20,
                learning_rate=0.001, optimizer="sgd", train_samples=1120,
                elements_per_sample=60483, steps=56),
    "P1B1": dict(train_mb=771, test_mb=258, epochs=384, batch_size=100,
                 learning_rate=None, optimizer="adam", train_samples=2700,
                 elements_per_sample=60484, steps=27),
    "P1B2": dict(train_mb=162, test_mb=55, epochs=768, batch_size=60,
                 learning_rate=0.001, optimizer="rmsprop", train_samples=2700,
                 elements_per_sample=28204, steps=45),
    "P1B3": dict(train_mb=318, test_mb=103, epochs=1, batch_size=100,
                 learning_rate=0.001, optimizer="sgd", train_samples=900_100,
                 elements_per_sample=1000, steps=9001),
}


@pytest.mark.parametrize("spec", [NT3_SPEC, P1B1_SPEC, P1B2_SPEC, P1B3_SPEC], ids=lambda s: s.name)
def test_table1_values(spec):
    row = TABLE1[spec.name]
    assert spec.train_mb == row["train_mb"]
    assert spec.test_mb == row["test_mb"]
    assert spec.epochs == row["epochs"]
    assert spec.batch_size == row["batch_size"]
    assert spec.learning_rate == row["learning_rate"]
    assert spec.optimizer == row["optimizer"]
    assert spec.train_samples == row["train_samples"]
    assert spec.elements_per_sample == row["elements_per_sample"]
    assert spec.steps_per_epoch == row["steps"]


def test_registry_order_and_names():
    names = [b.spec.name for b in all_benchmarks(scale=0.01)]
    assert names == ["NT3", "P1B1", "P1B2", "P1B3"]


def test_get_benchmark_case_insensitive():
    assert get_benchmark("Nt3").spec is NT3_SPEC
    with pytest.raises(ValueError, match="unknown benchmark"):
        get_benchmark("p9")


def _array_bytes(payload) -> int:
    """Bytes of the arrays in a message (not its control words)."""
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, dict):
        payload = list(payload.values())
    if isinstance(payload, (list, tuple)):
        return sum(_array_bytes(part) for part in payload)
    return 0


def test_a_world_2_p1b1_step_ships_the_bytes_the_simulator_prices(monkeypatch):
    """One world-2 P1B1 step at smoke scale: each rank sends
    ``arena.size × itemsize`` bytes of arrays (its reduce-scatter half
    of the gradient, its gathered half of the parameters), which is
    what ``repro.sim`` plans for an allreduce of the model's parameters
    at ``gradient_bytes``' element width."""
    bench = get_benchmark("p1b1", scale=0.01, sample_scale=0.05)
    x = np.random.default_rng(0).normal(size=(8, bench.features))
    sent: dict = {}
    send = Communicator.send

    def counting_send(self, obj, dest, tag=0):
        if self.rank in sent:
            sent[self.rank] += _array_bytes(obj)
        send(self, obj, dest, tag)

    monkeypatch.setattr(Communicator, "send", counting_send)

    def worker(comm):
        hvd.init(comm)
        try:
            model = bench.build_model(seed=comm.rank)
            model.compile(hvd.DistributedOptimizer(Adam(lr=0.01)), "mse")
            hvd.broadcast_weights(model)
            batch = x[comm.rank * 4 : (comm.rank + 1) * 4]
            model.train_on_batch(batch, batch)
            sent[comm.rank] = 0
            model.train_on_batch(batch, batch)
            return model.arena
        finally:
            hvd.shutdown()

    arenas = run_spmd(2, worker)
    priced = P1B1_SPEC.gradient_bytes // P1B1_SPEC.model_params_full
    assert DEFAULT_DTYPE.itemsize == priced == 4
    schedule = plan_allreduce(arenas[0].size * priced, Topology(world=2), CollectiveOptions())
    for rank, arena in enumerate(arenas):
        assert arena.dtype.itemsize == priced
        assert sent[rank] == arena.size * priced == schedule.wire_bytes()


def test_gradient_bytes_fp32():
    """Priced at the training dtype's width (``repro.nn.DEFAULT_DTYPE``),
    still 4 bytes, so no simulated row moves."""
    for spec in (NT3_SPEC, P1B1_SPEC, P1B2_SPEC, P1B3_SPEC):
        assert spec.gradient_bytes == spec.model_params_full * 4
    # NT3's dense bottleneck dominates: ~155M params (~620 MB fp32)
    assert 150e6 < NT3_SPEC.model_params_full < 160e6
    assert 240e6 < P1B1_SPEC.model_params_full < 250e6
    assert 29e6 < P1B2_SPEC.model_params_full < 30e6
    assert 1.4e6 < P1B3_SPEC.model_params_full < 1.7e6


def test_steps_per_epoch_at_alternative_batch():
    assert NT3_SPEC.steps_per_epoch_at(40) == 28
    assert NT3_SPEC.steps_per_epoch_at(2000) == 1  # floor at one step
    with pytest.raises(ValueError):
        NT3_SPEC.steps_per_epoch_at(0)


def test_spec_validation():
    with pytest.raises(ValueError):
        BenchmarkSpec(
            name="X", train_mb=1, test_mb=1, epochs=0, batch_size=1,
            learning_rate=None, optimizer="sgd", train_samples=10,
            test_samples=5, elements_per_sample=4, task="regression",
        )


def test_scaled_geometry_floors():
    b = get_benchmark("nt3", scale=1e-6)
    assert b.features >= b.MIN_FEATURES
    assert b.train_samples >= b.MIN_SAMPLES


def test_sample_scale_independent_of_feature_scale():
    b = get_benchmark("nt3", scale=0.01, sample_scale=1.0)
    assert b.features == 604
    assert b.train_samples == 1120  # full Table 1 count
    assert b.train_samples // b.effective_batch_size() == 56  # paper's steps


def test_invalid_scales():
    with pytest.raises(ValueError):
        get_benchmark("nt3", scale=0.0)
    with pytest.raises(ValueError):
        get_benchmark("nt3", scale=0.5, sample_scale=2.0)
