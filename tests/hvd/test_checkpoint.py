"""Distributed checkpoint/restart: rank-0 writes, everyone resumes."""

import os

import numpy as np
import pytest

from repro import hvd
from repro.candle import get_benchmark
from repro.comms import CollectiveEngine
from repro.hvd.callbacks import CheckpointCallback, resume_from_checkpoint
from repro.mpi import run_spmd
from repro.nn import (
    SGD,
    Activation,
    Adam,
    CheckpointError,
    Dense,
    Dropout,
    LambdaCallback,
    Sequential,
    save_checkpoint,
)
from repro.resilience import CheckpointManager
from tests.hvd.step_oracle import BATCH, ROWS, checkpoint_arrays, oracle, oracle_checkpoint


def _data():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 5))
    y = np.eye(2)[(x[:, 1] > 0).astype(int)]
    return x, y


def _model(seed):
    m = Sequential([Dense(6, activation="tanh"), Dense(2), Activation("softmax")])
    m.build((5,), seed=seed)
    m.compile(hvd.DistributedOptimizer(SGD(lr=0.05)), "categorical_crossentropy")
    return m


def test_only_root_writes_and_all_ranks_wait(tmp_path):
    path = str(tmp_path / "ckpt.npz")

    def worker(comm):
        hvd.init(comm)
        try:
            x, y = _data()
            m = _model(seed=comm.rank)
            cb = CheckpointCallback(path, every_n_epochs=2)
            m.fit(
                x, y, epochs=4,
                callbacks=[hvd.BroadcastGlobalVariablesCallback(0), cb],
                shuffle=False,
            )
            return cb.epochs_written
        finally:
            hvd.shutdown()

    written = run_spmd(3, worker)
    assert all(w == [1, 3] for w in written)
    assert os.path.exists(path)


def test_resume_broadcasts_to_all_ranks(tmp_path):
    path = str(tmp_path / "ckpt.npz")

    # phase 1: train 2 epochs and checkpoint
    def train_phase(comm):
        hvd.init(comm)
        try:
            x, y = _data()
            m = _model(seed=1)
            m.fit(
                x, y, epochs=2,
                callbacks=[
                    hvd.BroadcastGlobalVariablesCallback(0),
                    CheckpointCallback(path, every_n_epochs=2),
                ],
                shuffle=False,
            )
            return m.get_weights()
        finally:
            hvd.shutdown()

    saved = run_spmd(2, train_phase)[0]

    # phase 2: fresh processes resume from the checkpoint
    def resume_phase(comm):
        hvd.init(comm)
        try:
            m = _model(seed=777 + comm.rank)  # arbitrary fresh init
            meta = resume_from_checkpoint(m, path)
            assert meta is not None
            return meta["epoch"], m.get_weights()
        finally:
            hvd.shutdown()

    results = run_spmd(2, resume_phase)
    for epoch, weights in results:
        assert epoch == 1
        for a, b in zip(saved, weights):
            assert np.array_equal(a, b)


def test_resume_missing_checkpoint_returns_none(tmp_path):
    def worker(comm):
        hvd.init(comm)
        try:
            m = _model(seed=0)
            return resume_from_checkpoint(m, str(tmp_path / "nope.npz"))
        finally:
            hvd.shutdown()

    assert run_spmd(2, worker) == [None, None]


def _adam_fit(comm, epochs, *, path=None, save=False, resume=False):
    """World-2 Dense 40->64->2 under Adam on this rank's shard, trained to
    ``epochs``: from scratch, saving at the end, or resumed from ``path``."""
    rng = np.random.default_rng(11 + comm.rank)
    x = rng.normal(size=(32, 40))
    y = np.eye(2)[(x[:, 0] > 0).astype(int)]
    hvd.init(comm)
    try:
        m = Sequential([Dense(64, activation="tanh"), Dense(2), Activation("softmax")])
        m.build((40,), seed=3 + comm.rank + 100 * resume)
        m.compile(hvd.DistributedOptimizer(Adam(lr=0.01)), "categorical_crossentropy")
        callbacks = [hvd.BroadcastGlobalVariablesCallback(0)]
        if save:
            callbacks.append(CheckpointCallback(path, every_n_epochs=epochs))
        start = 0
        if resume:
            start = resume_from_checkpoint(m, path)["epoch"] + 1
            callbacks = []
        m.fit(x, y, batch_size=8, epochs=epochs - start, initial_epoch=start,
              shuffle=False, callbacks=callbacks)
        return [w.tobytes() for w in m.get_weights()]
    finally:
        hvd.shutdown()


def test_an_adam_resume_is_the_uninterrupted_run(tmp_path):
    """Every rank resumes with the checkpoint's Adam moments, not only the
    root: 2 epochs, a checkpoint, a resume and 2 more equal 4 epochs."""
    path = str(tmp_path / "adam.npz")
    straight = run_spmd(2, lambda comm: _adam_fit(comm, 4))
    run_spmd(2, lambda comm: _adam_fit(comm, 2, path=path, save=True))
    resumed = run_spmd(2, lambda comm: _adam_fit(comm, 4, path=path, resume=True))
    assert resumed == straight


def test_invalid_interval():
    with pytest.raises(ValueError):
        CheckpointCallback("x", every_n_epochs=0)


# ---------------------------------------------------------------------------
# owner-step checkpoints: the whole state, byte for byte
# ---------------------------------------------------------------------------

P1B1 = get_benchmark("p1b1", scale=0.01, sample_scale=0.05)


def _p1b1(seed):
    """P1B1's autoencoder with its Dropout at rate 0: the oracle trains
    one model, and a per-rank mask would differ from it."""
    model = P1B1.build_model(seed=seed)
    for layer in model.layers:
        if isinstance(layer, Dropout):
            layer.rate = 0.0
    return model


def _p1b1_shards(world, rows):
    x = np.random.default_rng(world).normal(size=(world * rows, P1B1.features))
    return [(x[r * rows : (r + 1) * rows],) * 2 for r in range(world)]


def _p1b1_oracle(world, rows, epochs, path):
    """The checkpoint arrays of the serial oracle's P1B1 after ``epochs``."""
    model = _p1b1(7)
    oracle(model, Adam(lr=0.01), _p1b1_shards(world, rows), batch=BATCH, epochs=epochs, loss="mse")
    return oracle_checkpoint(model, path)


@pytest.fixture
def owner_steps(monkeypatch):
    ranks = []
    real = CollectiveEngine.allreduce_update

    def counting(self, *args, **kwargs):
        ranks.append(self.comm.rank)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(CollectiveEngine, "allreduce_update", counting)
    return ranks


@pytest.mark.parametrize("managed", [False, True], ids=["plain", "managed"])
def test_owner_step_checkpoints_hold_the_oracles_state(tmp_path, managed, owner_steps):
    """A world-2 P1B1/Adam fit under the owner step checkpoints every
    epoch; each file's ``param::*`` and ``state::*`` arrays equal the
    serial oracle's model and optimizer after the same epoch. The
    callback gathers the owners' state first: each rank alone holds
    correct ``m`` and ``v`` only on the segments it owns."""
    data = _p1b1_shards(2, ROWS)
    manager = CheckpointManager(tmp_path / "managed")

    def worker(comm):
        hvd.init(comm)
        try:
            model = _p1b1(7 + comm.rank)
            model.compile(hvd.DistributedOptimizer(Adam(lr=0.01)), "mse")
            written = []
            if managed:
                save = hvd.ManagedCheckpointCallback(manager)
            else:
                path = tmp_path / "plain.npz"
                save = CheckpointCallback(str(path), every_n_epochs=1)
            keep = LambdaCallback(
                on_epoch_end=lambda epoch, logs: written.append(
                    checkpoint_arrays(manager.path_for(epoch) if managed else path)
                )
            )
            model.fit(
                *data[comm.rank], batch_size=BATCH, epochs=2, shuffle=False,
                callbacks=[hvd.BroadcastGlobalVariablesCallback(0), save, keep],
            )
            return written
        finally:
            hvd.shutdown()

    results = run_spmd(2, worker)
    assert sorted(set(owner_steps)) == [0, 1]
    for epoch in range(2):
        want = _p1b1_oracle(2, ROWS, epoch + 1, tmp_path / f"oracle{epoch}.npz")
        assert any(key.startswith("state::") for key in want)
        for written in results:
            assert written[epoch] == want, epoch


def test_a_partial_state_is_never_written(tmp_path, owner_steps):
    """After an owner step outside ``fit`` each rank's state is correct
    only on its own segments: ``save_checkpoint`` refuses it, and writes
    the oracle's bytes once every rank has gathered the state."""
    data = _p1b1_shards(2, BATCH)

    def worker(comm):
        hvd.init(comm)
        try:
            model = _p1b1(7 + comm.rank)
            model.compile(hvd.DistributedOptimizer(Adam(lr=0.01)), "mse")
            hvd.broadcast_weights(model)
            model.train_on_batch(*data[comm.rank])
            path = tmp_path / f"rank{comm.rank}.npz"
            with pytest.raises(CheckpointError, match="gather_state"):
                save_checkpoint(model, path)
            assert not path.exists()
            model.optimizer.gather_state(model.arena)
            save_checkpoint(model, path)
            return checkpoint_arrays(path)
        finally:
            hvd.shutdown()

    results = run_spmd(2, worker)
    assert sorted(set(owner_steps)) == [0, 1]
    want = _p1b1_oracle(2, BATCH, 1, tmp_path / "oracle.npz")
    assert results == [want, want]


def test_a_fit_leaves_the_state_partitioned_until_gathered(tmp_path, owner_steps):
    """An owner-step fit leaves each rank state for its own segments
    only: ``save_checkpoint`` right after it refuses, and writes the
    oracle's bytes once every rank has consolidated the state."""
    data = _p1b1_shards(2, ROWS)

    def worker(comm):
        hvd.init(comm)
        try:
            model = _p1b1(7 + comm.rank)
            model.compile(hvd.DistributedOptimizer(Adam(lr=0.01)), "mse")
            model.fit(
                *data[comm.rank], batch_size=BATCH, epochs=2, shuffle=False,
                callbacks=[hvd.BroadcastGlobalVariablesCallback(0)],
            )
            path = tmp_path / f"rank{comm.rank}.npz"
            with pytest.raises(CheckpointError, match="gather_state"):
                save_checkpoint(model, path)
            assert not path.exists()
            model.optimizer.gather_state(model.arena)
            save_checkpoint(model, path)
            return checkpoint_arrays(path)
        finally:
            hvd.shutdown()

    results = run_spmd(2, worker)
    assert sorted(set(owner_steps)) == [0, 1]
    want = _p1b1_oracle(2, ROWS, 2, tmp_path / "oracle.npz")
    assert any(key.startswith("state::") for key in want)
    assert results == [want, want]
