"""DistributedOptimizer: gradient averaging semantics, against the
serial oracle (``tests/hvd/step_oracle``) byte for byte."""

import numpy as np
import pytest

from repro import hvd
from repro.mpi import run_spmd
from repro.comms import CollectiveOptions
from repro.nn import SGD, Adam, ParameterArena
from repro.nn.optimizers import Optimizer
from repro.train import TrainOptions
from tests.hvd.step_oracle import BATCH, ROWS, build, shards, slabs
from tests.hvd.test_step_oracle import distributed, serial


def _with_hvd(nprocs, fn):
    def worker(comm):
        hvd.init(comm)
        try:
            return fn(comm)
        finally:
            hvd.shutdown()

    return run_spmd(nprocs, worker)


def test_wraps_only_optimizers():
    with pytest.raises(TypeError):
        hvd.DistributedOptimizer("sgd")


def test_single_rank_passthrough():
    hvd.init()
    try:
        opt = hvd.DistributedOptimizer(SGD(lr=0.1))
        arena = ParameterArena({"w": np.zeros(4)})
        arena.grads_flat[:] = 1.0
        opt.reduce_arena(arena)
        assert (arena.grads_flat == 1.0).all()
        assert opt.allreduce_count == 0
    finally:
        hvd.shutdown()


def test_the_name_keyed_step_has_no_distributed_form():
    opt = hvd.DistributedOptimizer(SGD(lr=0.1))
    with pytest.raises(TypeError, match="apply_arena"):
        opt.apply_gradients({"w": np.zeros(4)}, {"w": np.ones(4)})


def test_gradients_averaged_across_ranks():
    make = lambda: SGD(lr=0.1)  # noqa: E731
    want, _ = serial(4, TrainOptions(), make)
    for got, _ in distributed(4, TrainOptions(), make):
        assert got == want


def test_equivalent_to_large_batch_sgd():
    """N workers averaging over shards == one worker on the full batch
    (equal up to the order of summation, so in float64 by name)."""
    train = TrainOptions(dtype="float64")
    data = shards(4)
    full = build(7, train)
    full.compile(SGD(lr=0.1), "categorical_crossentropy")
    for start in range(0, ROWS, BATCH):
        x, y = (np.concatenate([d[i][start : start + BATCH] for d in data]) for i in (0, 1))
        full.train_on_batch(x, y)
    for got, _ in distributed(4, train, lambda: SGD(lr=0.1)):
        assert np.allclose(np.frombuffer(got["param"]), full.arena.params_flat, atol=1e-12)


def test_multiple_fusion_groups_still_correct():
    make = lambda: SGD(lr=0.1, momentum=0.9)  # noqa: E731
    train = TrainOptions(collective=hvd.CollectiveOptions(fusion_bytes=64))
    want, _ = serial(2, train, make)

    def fn(comm):
        model = build(7 + comm.rank, train)
        opt = hvd.DistributedOptimizer(make(), train=train)
        model.compile(opt, "categorical_crossentropy")
        model.fit(
            *shards(2)[comm.rank], batch_size=BATCH, shuffle=False,
            callbacks=[hvd.BroadcastGlobalVariablesCallback(0)],
        )
        opt.gather_state(model.arena)  # a fit leaves the state partitioned
        return slabs(model, opt.base), opt.allreduce_count, len(model.arena.names)

    for got, count, tensors in _with_hvd(2, fn):
        assert got == want
        assert tensors == 6
        # float32 under a 64-byte cap: the conv kernel (12 scalars) and
        # bias (4) fill one group exactly; the other four tensors ride
        # alone, so five ring ops a step
        assert count == ROWS // BATCH * 5


def test_lr_proxying_reaches_base():
    base = Adam(lr=0.001)
    hvd.init()
    try:
        opt = hvd.DistributedOptimizer(base)
        opt.lr = 0.005
        assert base.lr == 0.005
        opt.scale_lr(2)
        assert base.lr == pytest.approx(0.01)
        assert opt.iterations == base.iterations
    finally:
        hvd.shutdown()


def test_base_optimizer_state_updates():
    def fn(comm):
        base = Adam(lr=0.01)
        opt = hvd.DistributedOptimizer(base)
        opt.apply_arena(ParameterArena({"w": np.zeros(4)}))
        return base.iterations

    assert _with_hvd(2, fn) == [1, 1]


class UpdateOneMomentum(Optimizer):
    """Momentum SGD through ``_update_one`` alone: no slab kernel."""

    def _update_one(self, name, p, g, lr):
        slot = self.state_slot(name)
        v = slot.setdefault("velocity", np.zeros_like(p))
        v *= 0.9
        v -= lr * g
        p += v


def test_an_optimizer_without_a_slab_kernel_steps_each_fusion_group():
    """A base optimizer with only ``_update_one`` updates whole
    parameters; fusion groups are whole parameters, so a world-2 fit in
    512-byte groups lands the oracle's bits."""
    make = lambda: UpdateOneMomentum(lr=0.05)  # noqa: E731
    train = TrainOptions(collective=CollectiveOptions(fusion_bytes=512))
    assert len(build(7, train).arena.fusion_groups(512)) > 1
    want, want_losses = serial(2, train, make, epochs=2)
    for rank, (got, losses) in enumerate(distributed(2, train, make, epochs=2)):
        assert got == want
        assert np.array(losses).tobytes() == np.array(want_losses[rank]).tobytes()
