"""Horovod runtime: thread-local identity, instrumented collectives."""

import time

import numpy as np
import pytest

from repro import hvd
from repro.mpi import run_spmd
from repro.nn import SGD
from repro.telemetry import Tracer
from repro.train import TrainOptions


def _with_hvd(nprocs, fn, tracer=None, local_size=1):
    def worker(comm):
        hvd.init(comm, tracer=tracer)
        try:
            return fn(comm)
        finally:
            hvd.shutdown()

    return run_spmd(nprocs, worker, local_size=local_size)


class TestIdentity:
    def test_size_rank_local_rank(self):
        # a node-local rank (GPU pinning) is the communicator's
        out = _with_hvd(6, lambda c: (hvd.size(), hvd.rank(), c.local_rank), local_size=3)
        assert out == [(6, r, r % 3) for r in range(6)]

    def test_single_rank_default_world(self):
        hvd.init()
        try:
            assert hvd.size() == 1
            assert hvd.rank() == 0
        finally:
            hvd.shutdown()

    def test_uninitialized_access_raises(self):
        assert not hvd.is_initialized()
        with pytest.raises(RuntimeError, match="not initialized"):
            hvd.size()

    def test_double_init_rejected(self):
        hvd.init()
        try:
            with pytest.raises(RuntimeError, match="twice"):
                hvd.init()
        finally:
            hvd.shutdown()


class TestOps:
    def test_allreduce_mean_default(self):
        out = _with_hvd(4, lambda c: hvd.allreduce(np.full(16, float(c.rank))))
        for arr in out:
            assert np.allclose(arr, 1.5)

    def test_broadcast_object(self):
        out = _with_hvd(3, lambda c: hvd.broadcast("w" if c.rank == 0 else None))
        assert out == ["w", "w", "w"]

    def test_ops_record_timeline_events(self):
        tr = Tracer()
        _with_hvd(2, lambda c: hvd.allreduce(np.ones(8), name="grads"), tracer=tr)
        names = {s.name for s in tr.spans if s.category == "allreduce"}
        assert {"negotiate_allreduce", "allreduce", "nccl_allreduce"} <= names
        tagged = [s for s in tr.spans if s.attrs.get("tensor") == "grads"]
        assert tagged

    def test_each_op_records_its_family_once_per_rank(self):
        tr = Tracer()

        def fn(comm):
            hvd.allreduce(np.ones(8), name="grads")
            hvd.broadcast(np.ones(4) if comm.rank == 0 else None, name="w")

        _with_hvd(2, fn, tracer=tr)
        # the engine's per-chunk spans ride along; the ops' own are these
        top = [s for s in tr.spans if s.name != "allreduce_chunk"]
        for rank in range(2):
            mine = [(s.name, s.category) for s in top if s.rank == rank]
            assert sorted(mine) == sorted(
                [(n, "allreduce") for n in hvd.ops.ALLREDUCE_EVENTS]
                + [(n, "broadcast") for n in hvd.ops.BROADCAST_EVENTS]
            )
        (reduce_op,) = [s for s in top if s.name == "allreduce" and s.rank == 0]
        assert reduce_op.attrs["bytes"] == 64
        assert reduce_op.attrs["algorithm"]
        (bcast,) = [s for s in top if s.name == "broadcast" and s.rank == 0]
        assert bcast.attrs["bytes"] == 32
        assert {s.attrs["tensor"] for s in top} == {"grads", "w"}

    def test_skewed_entry_shows_in_negotiate(self):
        tr = Tracer()

        def fn(comm):
            if comm.rank == 0:
                time.sleep(0.25)
            hvd.broadcast(1 if comm.rank == 0 else None)

        _with_hvd(3, fn, tracer=tr)
        waits = {
            s.rank: s.duration_s for s in tr.spans_named("negotiate_broadcast")
        }
        assert waits[0] < 0.1  # the slow rank doesn't wait
        assert waits[1] > 0.2 and waits[2] > 0.2  # fast ranks wait for it


class TestBroadcastWeights:
    def test_models_converge_to_root_weights(self):
        from repro.nn import Dense, Sequential

        def fn(comm):
            m = Sequential([Dense(4), Dense(2)])
            m.build((3,), seed=100 + comm.rank)
            hvd.broadcast_weights(m, root=0)
            return m.get_weights()

        results = _with_hvd(4, fn)
        for weights in results[1:]:
            for a, b in zip(results[0], weights):
                assert np.array_equal(a, b)

    def test_dict_target(self):
        def fn(comm):
            params = {"w": np.full(4, float(comm.rank))}
            hvd.broadcast_weights(params, root=2)
            return params["w"]

        for arr in _with_hvd(3, fn):
            assert np.allclose(arr, 2.0)

    def test_bad_target_type(self):
        hvd.init()
        try:
            with pytest.raises(TypeError):
                hvd.broadcast_weights([1, 2, 3])
        finally:
            hvd.shutdown()


def test_negotiate_precedes_data_movement_per_rank():
    """Timeline ordering: the rendezvous always ends where movement starts."""
    tr = Tracer()
    _with_hvd(3, lambda c: hvd.broadcast("w" if c.rank == 0 else None), tracer=tr)
    for rank in range(3):
        neg = next(s for s in tr.spans_named("negotiate_broadcast") if s.rank == rank)
        mov = next(s for s in tr.spans_named("mpi_broadcast") if s.rank == rank)
        assert neg.end_s <= mov.start_s + 1e-6


@pytest.fixture
def single_rank():
    hvd.init()
    yield
    hvd.shutdown()


REMOVED_FORMS = {
    "allreduce-positional-op": lambda: hvd.allreduce(np.ones(4), "sum"),
    "broadcast-positional-root": lambda: hvd.broadcast({"a": 1}, 0),
    "broadcast_weights-positional-root": lambda: hvd.broadcast_weights({"w": np.ones(3)}, 0),
    "optimizer-positional-fusion-bytes": lambda: hvd.DistributedOptimizer(SGD(lr=0.1), 1 << 20),
    "optimizer-options": lambda: hvd.DistributedOptimizer(SGD(lr=0.1), options=hvd.CollectiveOptions()),
    "optimizer-fusion-bytes": lambda: hvd.DistributedOptimizer(SGD(lr=0.1), fusion_bytes=512),
}


class TestCallForms:
    """One call form per op: every option past the payload is a keyword."""

    # the keyword forms themselves are checked in tests/comms/test_deprecation.py

    def test_optimizer_train_sets_fusion(self, single_rank):
        opt = hvd.DistributedOptimizer(
            SGD(lr=0.1),
            train=TrainOptions(collective=hvd.CollectiveOptions(fusion_bytes=256)),
        )
        assert opt.fusion_bytes == 256
        assert opt.options.fusion_bytes == 256

    @pytest.mark.parametrize("form", sorted(REMOVED_FORMS))
    def test_removed_forms_raise(self, single_rank, form):
        # a stale caller fails loudly instead of binding a value to the
        # wrong parameter
        with pytest.raises(TypeError):
            REMOVED_FORMS[form]()
