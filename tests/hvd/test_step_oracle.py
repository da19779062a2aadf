"""The whole distributed step against its serial oracle.

Every axis of the gradient exchange is drawn at once: world 2–4, one or
two ranks a node, the algorithm (flat, ring, rhd, hierarchical; an
infeasible choice demotes to ring), the fusion capacity, chunking,
overlap with 1, 2 or 4 channels, an emulated Summit fabric, float32
or float64, and the optimizer. Two epochs of three steps later, every rank's parameter slab,
every optimizer state slab and each rank's batch losses must equal
``tests/hvd/step_oracle.oracle``'s on ``tobytes()``. The gradient slab is
not compared: nothing reads it after the step.

The owner step keeps each rank's optimizer state for the segments it
owns only, and a fit leaves it so: every rank consolidates it with
``gather_state`` before the slabs are read. A read of the state in the
middle of a fit is drawn too: an epoch-end checkpoint, whose
``param::*`` and ``state::*`` arrays must equal the oracle's after the
same epoch, or a switch to allreduce-then-update after the first
epoch, whose updates read the whole state. ``test_skipping_the_state_gather_fails_the_property`` is
the negative control: without the gather the property fails.

Hypothesis budget: 40 derandomized examples in tier-1, 600 with
``--hypothesis-profile=deep`` (registered in ``tests/conftest.py``).
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import hvd
from repro.comms import CollectiveEngine, CollectiveOptions
from repro.mpi import run_spmd
from repro.nn import LambdaCallback
from repro.nn.optimizers import SGD, Adam, RMSprop
from repro.resilience import CheckpointManager
from repro.train import TrainOptions
from tests.hvd.step_oracle import (
    BATCH,
    ROWS,
    build,
    checkpoint_arrays,
    oracle,
    oracle_checkpoint,
    shards,
    slabs,
)

if settings.default is settings.get_profile("deep"):
    FUZZ = settings()
else:
    FUZZ = settings(max_examples=40, derandomize=True, deadline=None)

OPTIMIZERS = {
    "sgd": lambda: SGD(lr=0.05),
    "sgd_momentum": lambda: SGD(lr=0.05, momentum=0.9),
    "sgd_nesterov": lambda: SGD(lr=0.05, momentum=0.9, nesterov=True),
    "rmsprop": lambda: RMSprop(lr=0.01),
    "adam": lambda: Adam(lr=0.01),
    "adam_decay": lambda: Adam(lr=0.01, decay=0.1),
}


def distributed(world, train, make_opt, *, local_size=1, epochs=1, mid_read=None, directory=None):
    """Every rank's ``(slabs, batch losses)`` after a broadcast and a
    fit of ``epochs`` on its shard under ``train``.

    ``mid_read="checkpoint"`` checkpoints every epoch into ``directory``
    (``ManagedCheckpointCallback``); ``mid_read="switch"`` makes every
    step after the first epoch run allreduce-then-update, as ranks that
    no longer count as replicated do."""
    data = shards(world, train.dtype or np.float64)

    def worker(comm):
        hvd.init(comm, options=train.collective)
        try:
            model = build(7 + comm.rank, train)
            model.compile(hvd.DistributedOptimizer(make_opt(), train=train), "categorical_crossentropy")
            losses = []
            callbacks = [
                hvd.BroadcastGlobalVariablesCallback(0),
                LambdaCallback(on_batch_end=lambda _, logs: losses.append(logs["loss"])),
            ]
            if mid_read == "checkpoint":
                callbacks.append(hvd.ManagedCheckpointCallback(CheckpointManager(directory)))
            elif mid_read == "switch":

                def switch(epoch, logs):
                    if epoch == 0:
                        model.arena.replicated = False

                callbacks.append(LambdaCallback(on_epoch_end=switch))
            model.fit(
                *data[comm.rank], batch_size=BATCH, epochs=epochs, shuffle=False, train=train,
                callbacks=callbacks,
            )
            assert model.optimizer.iterations == epochs * ROWS // BATCH
            # a fit leaves the owner step's state partitioned: consolidate
            model.optimizer.gather_state(model.arena)
            return slabs(model, model.optimizer.base), losses
        finally:
            hvd.shutdown()

    return run_spmd(world, worker, local_size=local_size)


def serial(world, train, make_opt, *, epochs=1):
    """The oracle's ``(slabs, each rank's batch losses)`` for the run
    ``distributed`` makes."""
    model, optimizer = build(7, train), make_opt()
    losses = oracle(model, optimizer, shards(world, train.dtype or np.float64), batch=BATCH, epochs=epochs)
    return slabs(model, optimizer), losses


def check_against_oracle(world, train, opt_name, *, local_size=1, mid_read=None):
    """Fit two epochs on ``world`` ranks and assert every rank's slabs
    and batch losses, and any epoch-end checkpoint, equal the oracle's."""
    make_opt = OPTIMIZERS[opt_name]
    want, want_losses = serial(world, train, make_opt, epochs=2)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        results = distributed(
            world, train, make_opt, local_size=local_size, epochs=2,
            mid_read=mid_read, directory=directory,
        )
        if mid_read == "checkpoint":
            written = CheckpointManager(directory)
            for epoch in range(2):
                model, optimizer = build(7, train), make_opt()
                oracle(model, optimizer, shards(world, train.dtype or np.float64), batch=BATCH, epochs=epoch + 1)
                want_arrays = oracle_checkpoint(model, directory / f"oracle{epoch}.npz")
                got = checkpoint_arrays(written.path_for(epoch))
                assert got == want_arrays, f"checkpoint of epoch {epoch}"
    for rank, (got, losses) in enumerate(results):
        got_losses = np.array(losses).tobytes()
        assert got_losses == np.array(want_losses[rank]).tobytes(), f"losses of rank {rank}"
    for rank, (got, losses) in enumerate(results):
        assert got == want, f"slabs of rank {rank}"


@FUZZ
@given(
    world=st.integers(2, 4),
    two_a_node=st.booleans(),
    algorithm=st.sampled_from(["flat", "ring", "rhd", "hierarchical"]),
    fusion_bytes=st.sampled_from([512, CollectiveOptions().fusion_bytes]),
    chunk_bytes=st.sampled_from([None, 1024]),
    channels=st.sampled_from([0, 1, 2, 4]),  # 0: overlap off
    emulate_fabric=st.booleans(),
    dtype=st.sampled_from([np.float32, np.float64]),
    opt_name=st.sampled_from(sorted(OPTIMIZERS)),
    mid_read=st.sampled_from([None, "checkpoint", "switch"]),
)
def test_distributed_step_equals_serial_oracle(
    world, two_a_node, algorithm, fusion_bytes, chunk_bytes, channels,
    emulate_fabric, dtype, opt_name, mid_read,
):
    train = TrainOptions(
        dtype=dtype,
        overlap=channels > 0,
        overlap_channels=max(channels, 1),
        collective=CollectiveOptions(
            algorithm=algorithm,
            fusion_bytes=fusion_bytes,
            chunk_bytes=chunk_bytes,
            emulate_fabric="summit" if emulate_fabric else None,
        ),
    )
    local_size = 2 if two_a_node and world % 2 == 0 else 1
    check_against_oracle(world, train, opt_name, local_size=local_size, mid_read=mid_read)


@pytest.mark.parametrize(
    "mid_read,caught",
    [(None, "slabs"), ("checkpoint", "checkpoint"), ("switch", "losses")],
    ids=["fit_end", "checkpoint", "switch"],
)
def test_skipping_the_state_gather_fails_the_property(mid_read, caught, monkeypatch):
    """The negative control: an owner-step run whose state gather moves
    nothing leaves each rank correct state on its own segments only, and
    the property fails at float64 at the read: the state slabs at the
    end of the fit, an epoch-end checkpoint, or the losses after the
    switch to allreduce-then-update."""
    monkeypatch.setattr(CollectiveEngine, "gather_owned", lambda self, slabs, **kwargs: None)
    train = TrainOptions(dtype=np.float64, collective=CollectiveOptions(algorithm="ring"))
    with pytest.raises(AssertionError, match=caught):
        check_against_oracle(2, train, "adam", mid_read=mid_read)
