"""Property: a checkpoint save → restore is the identity.

Table 1's four models at test scale, under each of Table 1's optimizers
(``sgd``, ``adam``, ``rmsprop``), train on 1–3 ranks with the owner
step; every rank gathers its partitioned optimizer state, and the root
writes one checkpoint through :class:`~repro.resilience.CheckpointManager`
(the :class:`~repro.hvd.ManagedCheckpointCallback` path). A fresh model
of another seed on every rank then restores it (``restore_latest`` on
one rank, ``restore_distributed`` on more). Oracle: the trained ranks
themselves. Every rank's parameters, optimizer state slots, learning
rate, iteration count and RNG streams (shuffle order and every dropout
mask generator) must match, byte for byte.

Tier-1 runs every model × optimizer × world once; the property draws
the rows, batch size and seeds as well (``--hypothesis-profile=deep``).
Both run in the default dtype (float32); a checkpoint restores into a
model of its own dtype only.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import hvd
from repro.candle import get_benchmark
from repro.mpi import run_spmd
from repro.nn import CheckpointError, get_optimizer, load_checkpoint, save_checkpoint
from repro.nn.serialization import capture_rng_state
from repro.resilience import CheckpointManager
from repro.train import TrainOptions

#: Table 1's models at test scale
BENCHMARKS = {
    "nt3": get_benchmark("nt3", scale=0.004, sample_scale=0.05),
    "p1b1": get_benchmark("p1b1", scale=0.004, sample_scale=0.02),
    "p1b2": get_benchmark("p1b2", scale=0.01, sample_scale=0.02),
    "p1b3": get_benchmark("p1b3", scale=0.01, sample_scale=0.0001),
}
OPTIMIZERS = ("sgd", "adam", "rmsprop")
WORLDS = (1, 2, 3)

if settings.default is settings.get_profile("deep"):
    FUZZ = settings()
else:
    FUZZ = settings(max_examples=6, derandomize=True, deadline=None)


def _compiled(bench, optimizer: str, seed: int):
    model = bench.build_model(seed=seed)
    loss, metrics = bench.loss_and_metrics()
    base = get_optimizer(optimizer, lr=bench.spec.learning_rate)
    model.compile(hvd.DistributedOptimizer(base), loss, metrics=metrics)
    return model


def _state(model) -> dict:
    """Every byte a resume depends on, for one rank."""
    opt = model.optimizer.base
    return {
        "params": {k: v.tobytes() for k, v in model.named_parameters().items()},
        "slots": {
            p: {slot: arr.tobytes() for slot, arr in slots.items()}
            for p, slots in opt._state.items()
        },
        "lr": opt.lr,
        "iterations": opt.iterations,
        "rng": capture_rng_state(model),
    }


def assert_restore_is_identity(
    tmp_path, name: str, optimizer: str, world: int, rows: int, batch: int, seed: int
) -> None:
    bench = BENCHMARKS[name]
    data = bench.prepare(bench.synth_arrays(np.random.default_rng(seed)))
    manager = CheckpointManager(tmp_path / f"{name}-{optimizer}-{world}-{seed}")

    def train(comm):
        hvd.init(comm)
        try:
            model = _compiled(bench, optimizer, seed + comm.rank)
            x = data.x_train[comm.rank::world][:rows]
            y = data.y_train[comm.rank::world][:rows]
            model.fit(
                x, y, batch_size=batch, epochs=1,
                callbacks=[
                    hvd.BroadcastGlobalVariablesCallback(0),
                    hvd.ManagedCheckpointCallback(manager, every_n_epochs=1),
                ],
            )
            # the owner step leaves each rank its own segments' state
            model.optimizer.gather_state(model.arena)
            return _state(model)
        finally:
            hvd.shutdown()

    def restore(comm):
        hvd.init(comm)
        try:
            model = _compiled(bench, optimizer, seed + 100 + comm.rank)
            if world == 1:
                meta = manager.restore_latest(model)
            else:
                meta = manager.restore_distributed(model)
            assert meta is not None and meta["epoch"] == 0
            return _state(model)
        finally:
            hvd.shutdown()

    trained = run_spmd(world, train)
    restored = run_spmd(world, restore)
    for rank, (want, got) in enumerate(zip(trained, restored)):
        for key in want:
            assert got[key] == want[key], f"rank {rank}: {key} differs"


@pytest.mark.parametrize("world", WORLDS)
@pytest.mark.parametrize("optimizer", OPTIMIZERS)
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_restore_is_identity(tmp_path, name, optimizer, world):
    assert_restore_is_identity(tmp_path, name, optimizer, world, rows=8, batch=4, seed=0)


@FUZZ
@given(
    name=st.sampled_from(sorted(BENCHMARKS)),
    optimizer=st.sampled_from(OPTIMIZERS),
    world=st.sampled_from(WORLDS),
    rows=st.integers(1, 12),
    batch=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_restore_is_identity_property(tmp_path_factory, name, optimizer, world, rows, batch, seed):
    tmp_path = tmp_path_factory.mktemp("ckpt")
    assert_restore_is_identity(tmp_path, name, optimizer, world, rows, batch, seed)


def _drop_meta_key(path, key: str) -> None:
    """Rewrite checkpoint ``path`` without ``meta[key]``, as a file
    written before the key existed."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(arrays["meta::json"].tobytes().decode())
    del meta[key]
    arrays["meta::json"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def test_a_checkpoint_restores_into_its_own_dtype_only(tmp_path):
    """A checkpoint records its dtype. Restored into a model of another
    precision it raises, the model untouched, where a copy would round
    the weights and the Adam slots; one without the key reads as
    float64."""
    bench = BENCHMARKS["p1b2"]
    f64 = TrainOptions(dtype="float64")
    data = bench.prepare(bench.synth_arrays(np.random.default_rng(0)))
    model = bench.build_model(seed=0, train=f64)
    model.compile(get_optimizer("adam", lr=0.01), *bench.loss_and_metrics())
    model.fit(data.x_train[:8], data.y_train[:8], batch_size=4, epochs=1)
    path = tmp_path / "f64.npz"
    save_checkpoint(model, path)

    fresh = bench.build_model(seed=1)
    fresh.compile(get_optimizer("adam", lr=0.01), *bench.loss_and_metrics())
    before = fresh.arena.params_flat.tobytes()
    with pytest.raises(CheckpointError, match="dtype float64 != model dtype float32"):
        load_checkpoint(fresh, path)
    assert fresh.arena.params_flat.tobytes() == before

    _drop_meta_key(path, "dtype")
    with pytest.raises(CheckpointError, match="dtype float64"):
        load_checkpoint(fresh, path)
    twin = bench.build_model(seed=1, train=f64)
    twin.compile(get_optimizer("adam", lr=0.01), *bench.loss_and_metrics())
    assert load_checkpoint(twin, path)["iterations"] == 2
    assert twin.arena.params_flat.tobytes() == model.arena.params_flat.tobytes()
