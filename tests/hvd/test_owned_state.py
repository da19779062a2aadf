"""The owner step's memory: each rank allocates optimizer state only for
the elements it owns (ZeRO stage 1).

In a world-2 Adam fit of a small P1B1 autoencoder under the owner step,
each rank's state slabs hold exactly its owned elements
(``CollectiveEngine.owned_ranges`` over the fusion groups), during the
fit and after it: a fit leaves the state partitioned, with no
per-parameter views of it in ``_state``. ``gather_state`` consolidates
it: the slabs are whole again and equal the serial oracle's byte for
byte. A warmed owner step allocates nothing the size of a state slab.
"""

import tracemalloc

import numpy as np
import pytest

from repro import hvd
from repro.candle import get_benchmark
from repro.mpi import run_spmd
from repro.nn import LambdaCallback
from repro.nn.optimizers import Adam
from repro.train import TrainOptions
from tests.hvd.step_oracle import BATCH, ROWS, oracle, slabs
from tests.hvd.test_checkpoint import _p1b1, _p1b1_shards


def owned_elements(opt, arena):
    """The arena elements this rank's owner steps update."""
    engine, itemsize = hvd.runtime.engine(), arena.dtype.itemsize
    return sum(
        hi - lo
        for start, stop, _ in arena.fusion_groups(opt.fusion_bytes)
        for lo, hi in engine.owned_ranges(stop - start, itemsize, opt.options)
    )


def state_bytes(opt):
    return sum(slab.nbytes for slab in opt.base.arena_state_slabs())


@pytest.mark.parametrize("overlap", [False, True], ids=["serial", "overlap"])
def test_each_rank_keeps_state_for_its_own_elements_only(overlap):
    train = TrainOptions(overlap=overlap)
    data = _p1b1_shards(2, ROWS)

    def worker(comm):
        hvd.init(comm)
        try:
            model = _p1b1(7 + comm.rank)
            opt = hvd.DistributedOptimizer(Adam(lr=0.01), train=train)
            model.compile(opt, "mse")
            during = []
            model.fit(
                *data[comm.rank], batch_size=BATCH, epochs=2, shuffle=False, train=train,
                callbacks=[
                    hvd.BroadcastGlobalVariablesCallback(0),
                    LambdaCallback(on_batch_end=lambda *_: during.append(state_bytes(opt))),
                ],
            )
            owned = owned_elements(opt, model.arena)
            after = state_bytes(opt)
            partitioned = not opt.state_is_whole
            views = [slots for slots in opt.base._state.values() if "m" in slots or "v" in slots]
            opt.gather_state(model.arena)
            return owned, during, after, partitioned, views, slabs(model, opt.base)
        finally:
            hvd.shutdown()

    model = _p1b1(7)
    oracle(model, Adam(lr=0.01), data, batch=BATCH, epochs=2, loss="mse")
    size, itemsize = model.arena.size, model.arena.dtype.itemsize
    want = slabs(model, model.optimizer)
    results = run_spmd(2, worker)
    assert sum(owned for owned, *_ in results) == size  # ring: each element once
    for owned, during, after, partitioned, views, got in results:
        assert 0 < owned < size
        assert during == [owned * itemsize * 2] * (2 * ROWS // BATCH)
        assert after == owned * itemsize * 2
        assert partitioned and not views
        assert got == want


def test_a_warmed_owner_step_allocates_nothing_state_sized():
    """A P1B1 four times wider, so an owned state slab (3 MB) is far
    larger than any block-sized work buffer a step may allocate (the
    owner's fold uses 512 KB)."""
    bench = get_benchmark("p1b1", scale=0.04, sample_scale=0.05)
    x = np.random.default_rng(2).normal(size=(2 * BATCH, bench.features))

    def worker(comm):
        hvd.init(comm)
        try:
            model = bench.build_model(seed=7 + comm.rank)
            opt = hvd.DistributedOptimizer(Adam(lr=0.01))
            model.compile(opt, "mse")
            hvd.broadcast_weights(model)
            batch = x[comm.rank * BATCH : (comm.rank + 1) * BATCH]
            for _ in range(2):
                model.train_on_batch(batch, batch)
            comm.barrier()
            if comm.rank == 0:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            comm.barrier()
            model.train_on_batch(batch, batch)
            comm.barrier()
            grown = tracemalloc.get_traced_memory()[1] - base if comm.rank == 0 else None
            comm.barrier()  # no rank consolidates before the peak is read
            slab = opt.base.arena_state_slabs()[0].nbytes
            whole = model.arena.nbytes
            opt.gather_state(model.arena)
            return grown, slab, whole
        finally:
            hvd.shutdown()

    tracemalloc.start()
    try:
        (grown, slab, whole), (_, other, _) = run_spmd(2, worker)
    finally:
        tracemalloc.stop()
    assert slab + other == whole
    # both ranks' steps together: under a quarter of one owned state slab
    assert grown < slab // 4, (grown, slab)
