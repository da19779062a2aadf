"""The owner step's safety rules, each against the serial oracle.

``DistributedOptimizer.apply_arena`` (and each overlap bucket) runs the
engine's owner step where it may: the rank that reduces a segment folds
the mean into its own gradient slab, updates that segment alone, and the
gather carries its parameter segment to the other ranks. The optimizer
state stays with its owner until ``DistributedOptimizer.gather_state``
(at the end of every ``fit``). After every fit each rank must hold
exactly what the reference step leaves: every element reduced, then
updated, on every rank.

The reference is ``tests/hvd/step_oracle.oracle``, the packed Horovod
step (allreduce every gradient, then update) run serially, which never
runs the owner step; every rank's parameter and optimizer state slabs
are compared with it by ``tobytes()``. ``test_owner_step_is_the_packed_step``
does so after 3 steps on a fixed grid of topologies, optimizers, overlap
and fusion capacities, and requires every rank to have entered the
owner step; ``tests/hvd/test_step_oracle.py`` draws every axis of the
exchange against the same oracle.

The other cases hold the step's safety rules, each with a test that
fails without it: channels update with their own work buffers, the iteration
count advances before the first bucket updates, a sender leaves only
after its receivers have copied, and in runs whose engine may retry
(fault tolerance), whose wire bytes cost emulated time, or whose ranks
wrote their own weights every rank owns everything: each ``update`` is
handed its whole range, after the allreduce, and no parameter gather
runs.
"""

import functools
import sys
import threading
import time

import numpy as np
import pytest

from repro import hvd
from repro.comms import CollectiveEngine, CollectiveOptions
from repro.comms.ft import FaultToleranceOptions
from repro.mpi import run_spmd
from repro.nn.optimizers import Adam
from repro.train import TrainOptions
from tests.hvd.step_oracle import BATCH, ROWS, build, shards
from tests.hvd.test_step_oracle import OPTIMIZERS, distributed, serial


#: the grid's optimizers, a subset of the property's
GRID_OPTIMIZERS = ["adam", "rmsprop", "sgd_momentum", "sgd_nesterov"]

#: (algorithm, world, local_size); rhd needs a power-of-two world and
#: hierarchical more than one node of more than one rank
TOPOLOGIES = [
    ("ring", 2, 1),
    ("ring", 3, 1),
    ("ring", 4, 1),
    ("rhd", 2, 1),
    ("rhd", 4, 1),
    ("hierarchical", 4, 2),
]

FUSIONS = {"fusion512": 512, "fusion_default": CollectiveOptions().fusion_bytes}


def fit(world, make_opt, train, local_size=1, epochs=1):
    """3 steps an epoch on every rank under ``train``; each rank's slabs."""
    results = distributed(world, train, make_opt, local_size=local_size, epochs=epochs)
    return [got for got, _ in results]


@pytest.fixture
def owner_calls(monkeypatch):
    """Ranks that entered ``CollectiveEngine.allreduce_update``."""
    calls = []
    real = CollectiveEngine.allreduce_update

    def counting(self, *args, **kwargs):
        calls.append(self.comm.rank)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(CollectiveEngine, "allreduce_update", counting)
    return calls


@pytest.fixture
def updates(monkeypatch):
    """Every ``CollectiveEngine.allreduce_update`` call as ``(rank, size,
    ranges)``: the size of its range and the ranges its ``update`` was
    handed. The engine gets a read-only view of the parameters, so a
    parameter gather, which writes them, fails the call."""
    calls = []
    real = CollectiveEngine.allreduce_update

    def spying(self, slabs, update, **kwargs):
        grads, params = slabs
        frozen = params.view()
        frozen.flags.writeable = False
        ranges = []

        def recording(lo, hi):
            ranges.append((lo, hi))
            update(lo, hi)

        real(self, (grads, frozen), recording, **kwargs)
        calls.append((self.comm.rank, grads.size, ranges))

    monkeypatch.setattr(CollectiveEngine, "allreduce_update", spying)
    return calls


def assert_every_rank_owns_everything(calls, world=2):
    """Every rank stepped, and every update got its whole range."""
    assert sorted({rank for rank, _, _ in calls}) == list(range(world))
    for rank, size, ranges in calls:
        assert ranges == [(0, size)], (rank, size, ranges)


def assert_all_ranks_equal(results, want):
    for rank, got in enumerate(results):
        assert sorted(got) == sorted(want), rank
        for kind in want:
            assert got[kind] == want[kind], (rank, kind)


@functools.lru_cache(maxsize=None)
def packed_step(world, opt_name):
    """The oracle's slabs after 3 steps (the bits do not depend on the
    algorithm, the fusion, the overlap or the topology)."""
    return serial(world, TrainOptions(), OPTIMIZERS[opt_name])[0]


@pytest.mark.parametrize("fusion", sorted(FUSIONS))
@pytest.mark.parametrize("overlap", [False, True], ids=["serial", "overlap"])
@pytest.mark.parametrize("opt_name", GRID_OPTIMIZERS)
@pytest.mark.parametrize(
    "algorithm,world,local_size", TOPOLOGIES, ids=[f"{a}-w{w}" for a, w, _ in TOPOLOGIES]
)
def test_owner_step_is_the_packed_step(
    algorithm, world, local_size, opt_name, overlap, fusion, owner_calls
):
    train = TrainOptions(
        overlap=overlap,
        collective=CollectiveOptions(algorithm=algorithm, fusion_bytes=FUSIONS[fusion]),
    )
    results = fit(world, OPTIMIZERS[opt_name], train, local_size=local_size)
    assert sorted(set(owner_calls)) == list(range(world))
    assert_all_ranks_equal(results, packed_step(world, opt_name))


def test_chunked_float32_owner_step_is_allreduce_then_update(owner_calls):
    """Pipelined chunks, each with its own owner step, on a float32
    arena: the mean is folded in float64 and cast as the engine's
    allreduce casts it."""
    train = TrainOptions(
        dtype=np.float32,
        collective=CollectiveOptions(algorithm="ring", chunk_bytes=1024),
    )
    results = fit(3, OPTIMIZERS["adam"], train)
    assert owner_calls
    want, _ = serial(3, train, OPTIMIZERS["adam"])
    assert_all_ranks_equal(results, want)


class MeetingAdam(Adam):
    """Adam whose range updates first wait (briefly) for a second one, so
    two overlap channels run the kernel at the same time."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._meet = threading.Barrier(2)

    def _arena_step(self, arena, lr, **span):
        try:
            self._meet.wait(timeout=0.02)
        except threading.BrokenBarrierError:
            self._meet.reset()  # an odd bucket out: update alone
        super()._arena_step(arena, lr, **span)


def test_two_channels_update_with_their_own_scratch(owner_calls):
    """Two overlap channels run the optimizer at once on different
    buckets. With the interpreter switching threads every microsecond,
    one shared set of work buffers would be overwritten mid-update."""
    train = TrainOptions(
        overlap=True, overlap_channels=2, collective=CollectiveOptions(fusion_bytes=512)
    )
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = fit(2, lambda: MeetingAdam(lr=0.01), train, epochs=8)
    finally:
        sys.setswitchinterval(old)
    assert owner_calls
    assert_all_ranks_equal(results, serial(2, TrainOptions(), OPTIMIZERS["adam"], epochs=8)[0])


def test_iterations_advance_before_the_first_bucket_updates(owner_calls):
    """Overlapped buckets update during backward, before ``apply_arena``:
    Adam's bias correction and ``decay`` must already see this step."""
    make = lambda: Adam(lr=0.01, decay=0.1)  # noqa: E731
    train = TrainOptions(overlap=True, collective=CollectiveOptions(fusion_bytes=512))
    want, _ = serial(2, TrainOptions(), make)
    results = fit(2, make, train)
    assert owner_calls
    assert_all_ranks_equal(results, want)


@pytest.mark.parametrize(
    "set_weights", [False, True], ids=["no_broadcast", "set_weights_after_broadcast"]
)
def test_ranks_with_their_own_weights_each_update_their_own(set_weights, updates):
    """Ranks that never synchronized their weights, or wrote their own
    after the broadcast (``set_weights``), each own everything: an owner
    would hand every rank its own parameters."""
    train = TrainOptions(overlap=True, collective=CollectiveOptions(fusion_bytes=512))

    def worker(comm):
        hvd.init(comm)
        try:
            model = build(7 + comm.rank, train)
            model.compile(hvd.DistributedOptimizer(Adam(lr=0.01), train=train), "mse")
            if set_weights:
                hvd.broadcast_weights(model)
                assert model.arena.replicated
                model.set_weights(build(11 + comm.rank, train).get_weights())
            assert not model.arena.replicated
            model.fit(*shards(2)[comm.rank], batch_size=BATCH, shuffle=False, train=train)
            return model.get_weights()
        finally:
            hvd.shutdown()

    w0, w1 = run_spmd(2, worker)
    assert_every_rank_owns_everything(updates)
    assert not all(np.array_equal(a, b) for a, b in zip(w0, w1))


# ---------------------------------------------------------------------------
# the engine's acknowledgements
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("entry", ["allreduce_update", "allreduce"])
@pytest.mark.parametrize(
    "algorithm,world,local_size",
    [("ring", 2, 1), ("ring", 3, 1), ("rhd", 4, 1), ("hierarchical", 4, 2)],
    ids=["ring-w2", "ring-w3", "rhd-w4", "hierarchical-w4"],
)
def test_a_rank_leaves_only_after_its_segments_are_copied(
    entry, algorithm, world, local_size
):
    """The gather ships views of the sender's own slabs: under the owner
    step its live slabs, which its next backward pass overwrites at
    once, and for an allreduce its fresh result, which the caller may
    write as soon as the call returns. An owner folds into its own
    contribution, which hierarchical rail peers fold too. Odd ranks here
    act 50 ms late on what they receive in a gather or along a rail;
    every rank wipes its slabs the moment the call returns. No wiped or
    folded byte may arrive."""
    opts = CollectiveOptions(algorithm=algorithm)
    # ring gather, rhd doubling, hierarchical rail ring and gather
    late_tags = {-102, -104, -106, -107}

    def worker(comm):
        grads = np.random.default_rng(comm.rank).normal(size=1000)
        params = np.random.default_rng(world).normal(size=1000)  # replicated
        mean = CollectiveEngine(comm, options=opts).allreduce(grads)
        if comm.rank % 2:
            recv = comm.recv

            def late_recv(source, tag=0):
                obj = recv(source, tag)
                if tag in late_tags:
                    time.sleep(0.05)
                return obj

            comm.recv = late_recv

        engine = CollectiveEngine(comm, options=opts)
        if entry == "allreduce":
            got = engine.allreduce(grads, name="g")
            kept = got.tobytes()
            got[...] = np.nan
            return kept == mean.tobytes()

        def update(lo, hi):
            params[lo:hi] -= 0.5 * grads[lo:hi]

        want = params - 0.5 * mean
        engine.allreduce_update([grads, params], update, name="g")
        got = params.copy()
        grads[...] = np.nan
        params[...] = np.nan
        return got.tobytes() == want.tobytes()

    assert all(run_spmd(world, worker, local_size=local_size))


class SpanRecorder:
    """A tracer keeping the ``bytes`` of every span."""

    def __init__(self):
        self.bytes = []

    def record_span(self, name, start_s, duration_s, **attrs):
        self.bytes.append(attrs["bytes"])


def test_the_gather_is_counted_with_every_slab_it_carries():
    """The gather carries the parameters only: the owner step sends
    exactly the bytes an ``allreduce`` of the same gradient sends, and
    says so in ``last_info["wire_bytes"]``, ``payload_bytes``, the chunk
    spans' bytes and the communicator's ``bytes_sent``."""
    n, world = 3000, 2
    opts = CollectiveOptions(algorithm="ring", chunk_bytes=8000)

    def worker(comm):
        grads = np.random.default_rng(comm.rank).normal(size=n)
        counts = {}
        for entry in ("allreduce", "allreduce_update"):
            spans = SpanRecorder()
            engine = CollectiveEngine(comm, options=opts, tracer=spans)
            before = comm.stats.bytes_sent
            if entry == "allreduce":
                engine.allreduce(grads.copy(), name="g")
            else:
                engine.allreduce_update(
                    [grads.copy(), np.full(n, 0.5)], lambda lo, hi: None, name="g"
                )
            counts[entry] = (engine.last_info, spans.bytes, comm.stats.bytes_sent - before)
        return counts

    for counts in run_spmd(world, worker):
        (info, spans, sent), (got_info, got_spans, got_sent) = (
            counts["allreduce"], counts["allreduce_update"]
        )
        assert info["algorithm"] == got_info["algorithm"] == "ring"
        assert info["chunks"] == got_info["chunks"] == 3  # 24,000 bytes in 8,000
        assert got_info["wire_bytes"] == info["wire_bytes"]
        assert got_info["payload_bytes"] == info["payload_bytes"] == n * 8
        assert got_spans == spans
        assert got_sent == sent


def test_a_one_bucket_plan_runs_on_the_rank_thread(owner_calls):
    """The bucket is released by the last backward event, so nothing can
    overlap it: no channel thread, and no communication hidden."""
    train = TrainOptions(overlap=True)  # the default fusion: one bucket

    def worker(comm):
        from repro.overlap import OverlapScheduler

        hvd.init(comm)
        try:
            model = build(7 + comm.rank, train)
            opt = hvd.DistributedOptimizer(Adam(lr=0.01), train=train)
            model.compile(opt, "categorical_crossentropy")
            sched = OverlapScheduler.maybe_install(model, opt, train=train)
            try:
                hvd.broadcast_weights(model)
                x, y = shards(2)[comm.rank]
                for start in range(0, ROWS, BATCH):
                    model.train_on_batch(x[start : start + BATCH], y[start : start + BATCH])
                return sched._workers, sched.stats, sched._on_layer_backward in model._backward_hooks
            finally:
                sched.close()
        finally:
            hvd.shutdown()

    for workers, stats, hooked in run_spmd(2, worker):
        assert workers == [] and not hooked
        assert stats.steps == stats.buckets == ROWS // BATCH
        assert stats.hidden_s == 0.0 and stats.overlap_fraction == 0.0
        assert stats.wait_s == stats.comm_s > 0
    assert sorted(set(owner_calls)) == [0, 1]


# ---------------------------------------------------------------------------
# runs where every rank owns everything
# ---------------------------------------------------------------------------


def test_an_emulated_fabric_fit_keeps_allreduce_then_update(updates):
    """The overlap buckets reduce with ``fit``'s options, which may differ
    from the optimizer's: an emulated-fabric ``fit`` with a
    default-options optimizer must train with every rank owning
    everything, not fail in the owner step."""
    emulated = TrainOptions(
        overlap=True,
        collective=CollectiveOptions(
            fusion_bytes=512, emulate_fabric="summit", emulate_fabric_scale=1.0
        ),
    )

    def worker(comm):
        hvd.init(comm)
        try:
            model = build(7 + comm.rank, emulated)
            model.compile(hvd.DistributedOptimizer(Adam(lr=0.01)), "categorical_crossentropy")
            model.fit(
                *shards(2)[comm.rank], batch_size=BATCH, shuffle=False, train=emulated,
                callbacks=[hvd.BroadcastGlobalVariablesCallback(0)],
            )
            return model.last_overlap_stats.buckets, model.arena.params_flat.tobytes()
        finally:
            hvd.shutdown()

    (buckets, got0), (_, got1) = run_spmd(2, worker)
    assert buckets > 0
    assert_every_rank_owns_everything(updates)
    assert got0 == got1


@pytest.mark.parametrize("overlap", [False, True], ids=["serial", "overlap"])
def test_an_emulated_fabric_keeps_allreduce_then_update(overlap, updates):
    """Under an emulated fabric every chunk sleeps its priced wire time
    and the owner step saves nothing measurable, so every rank owns
    everything (same bits)."""
    train = TrainOptions(
        overlap=overlap,
        collective=CollectiveOptions(
            fusion_bytes=512, emulate_fabric="summit", emulate_fabric_scale=1.0
        ),
    )
    results = fit(2, OPTIMIZERS["adam"], train)
    assert_every_rank_owns_everything(updates)
    assert_all_ranks_equal(results, serial(2, TrainOptions(), OPTIMIZERS["adam"])[0])


@pytest.mark.parametrize("overlap", [False, True], ids=["serial", "overlap"])
def test_fault_tolerant_engine_keeps_allreduce_then_update(overlap, updates):
    """A retried or restarted collective must never apply an update
    twice, so under the FT engine every rank owns everything: it reduces
    first and the base optimizer updates once, after it."""
    train = TrainOptions(
        overlap=overlap,
        collective=CollectiveOptions(
            fusion_bytes=512,
            fault_tolerance=FaultToleranceOptions(heartbeat_interval_s=0.01),
        ),
    )
    results = fit(2, OPTIMIZERS["adam"], train)
    assert_every_rank_owns_everything(updates)
    assert_all_ranks_equal(results, serial(2, TrainOptions(), OPTIMIZERS["adam"])[0])
