"""Horovod Keras callbacks under real SPMD training."""

import numpy as np
import pytest

from repro import hvd
from repro.mpi import run_spmd
from repro.nn import SGD, Activation, Dense, Sequential


def _data():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(60, 6))
    y = np.eye(2)[(x[:, 0] > 0).astype(int)]
    return x, y


def test_broadcast_callback_syncs_initial_weights():
    def worker(comm):
        hvd.init(comm)
        try:
            x, y = _data()
            m = Sequential([Dense(4, activation="tanh"), Dense(2), Activation("softmax")])
            m.build((6,), seed=10 * (comm.rank + 1))  # deliberately different
            m.compile(hvd.DistributedOptimizer(SGD(lr=0.1)), "categorical_crossentropy")
            cb = hvd.BroadcastGlobalVariablesCallback(0)
            m.fit(x, y, batch_size=30, epochs=2, callbacks=[cb], shuffle=False)
            assert cb.broadcast_done
            return m.get_weights()
        finally:
            hvd.shutdown()

    results = run_spmd(3, worker)
    for other in results[1:]:
        for a, b in zip(results[0], other):
            assert np.array_equal(a, b), "ranks diverged despite broadcast+allreduce"


def test_without_broadcast_ranks_diverge():
    """Control experiment: dropping the callback leaves ranks inconsistent."""

    def worker(comm):
        hvd.init(comm)
        try:
            x, y = _data()
            m = Sequential([Dense(4), Dense(2), Activation("softmax")])
            m.build((6,), seed=10 * (comm.rank + 1))
            m.compile(hvd.DistributedOptimizer(SGD(lr=0.1)), "categorical_crossentropy")
            m.fit(x, y, batch_size=30, epochs=1, shuffle=False)
            return m.get_weights()
        finally:
            hvd.shutdown()

    results = run_spmd(2, worker)
    assert not all(
        np.array_equal(a, b) for a, b in zip(results[0], results[1])
    )


def test_invalid_root_rejected():
    with pytest.raises(ValueError):
        hvd.BroadcastGlobalVariablesCallback(-1)
