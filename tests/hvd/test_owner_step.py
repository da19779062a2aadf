"""The owner step against the packed allreduce-then-update step.

``DistributedOptimizer.apply_arena`` (and each overlap bucket) runs the
engine's owner step where it may: the rank that reduces a segment folds
the mean into its own gradient slab, updates that segment alone, and the
gather carries its gradient, parameter and state segments to the other
ranks. After every step each rank must hold exactly what the reference
step leaves: every element reduced, then updated, on every rank.

The oracle is the ``TrainOptions(arena=False)`` packed path
(``reduce_gradients`` + the per-parameter ``apply_gradients``), which
never runs the owner step. After 3 steps every rank's parameters, mean
gradients and optimizer state slots are compared by ``tobytes()``.

The other cases hold the step's safety rules, each with a test that
fails without it: channels update with their own work buffers, the
iteration count advances before the first bucket updates, a sender
leaves only after its receivers have copied, and runs whose engine may
retry (fault tolerance), whose wire bytes cost emulated time, or whose
ranks wrote their own weights never enter the owner step.
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
from repro.nn import Conv1D, Dense, Flatten, MaxPooling1D, Sequential
from repro.nn.optimizers import SGD, Adam, RMSprop
from repro.train import TrainOptions

ROWS, BATCH = 24, 8  # 3 steps per rank

OPTIMIZERS = {
    "sgd_momentum": lambda: SGD(lr=0.05, momentum=0.9),
    "sgd_nesterov": lambda: SGD(lr=0.05, momentum=0.9, nesterov=True),
    "rmsprop": lambda: RMSprop(lr=0.01),
    "adam": lambda: Adam(lr=0.01),
}

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


class RecordingOptimizer(hvd.DistributedOptimizer):
    """The packed path, keeping the last averaged gradients."""

    def reduce_gradients(self, grads):
        self.averaged = super().reduce_gradients(grads)
        return self.averaged


class AllreduceThenUpdate(hvd.DistributedOptimizer):
    """The arena step without the owner step: allreduce every slice,
    then one whole-slab update (the second oracle, for float32 arenas,
    whose packed path differs from the arena path before any
    reduction)."""

    def apply_arena(self, arena):
        self.reduce_arena(arena)
        self.base.apply_arena(arena)


def build(seed, train):
    model = Sequential(
        [
            Conv1D(4, 3, activation="relu"),
            MaxPooling1D(2),
            Flatten(),
            Dense(16, activation="relu"),
            Dense(3, activation="softmax"),
        ]
    )
    model.build((24, 1), seed=seed, train=train)
    return model


def data(world):
    rng = np.random.default_rng(world)
    x = rng.normal(size=(world * ROWS, 24, 1))
    y = np.eye(3)[rng.integers(0, 3, size=world * ROWS)]
    return x, y


def slabs_of(model):
    """``{kind: {name: bytes}}`` for parameters, gradients, state slots."""
    opt = model.optimizer
    if model.arena is not None:
        grads = model.arena.grads
    else:
        grads = opt.averaged
    out = {
        "param": {n: a.tobytes() for n, a in model.named_parameters().items()},
        "grad": {n: np.asarray(a).tobytes() for n, a in grads.items()},
    }
    for name, slots in opt.base._state.items():
        for slot, arr in slots.items():
            out.setdefault(slot, {})[name] = arr.tobytes()
    return out


def fit(
    world, make_opt, train, local_size=1, optimizer_cls=hvd.DistributedOptimizer,
    epochs=1,
):
    """3 steps an epoch on every rank under ``train``; each rank's slabs."""
    x, y = data(world)

    def worker(comm):
        hvd.init(comm, options=train.collective)
        try:
            model = build(7 + comm.rank, train)
            model.compile(optimizer_cls(make_opt(), train=train), "categorical_crossentropy")
            shard = slice(comm.rank * ROWS, (comm.rank + 1) * ROWS)
            model.fit(
                x[shard], y[shard], batch_size=BATCH, epochs=epochs, shuffle=False,
                train=train, callbacks=[hvd.BroadcastGlobalVariablesCallback(0)],
            )
            assert model.optimizer.iterations == epochs * ROWS // BATCH
            return slabs_of(model)
        finally:
            hvd.shutdown()

    return run_spmd(world, worker, local_size=local_size)


@functools.lru_cache(maxsize=None)
def oracle(world, opt_name, epochs=1):
    """Rank 0's slabs on the packed path (the bits do not depend on the
    algorithm, the fusion or the topology)."""
    train = TrainOptions(arena=False)
    return fit(
        world, OPTIMIZERS[opt_name], train, optimizer_cls=RecordingOptimizer,
        epochs=epochs,
    )[0]


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


def assert_all_ranks_equal(results, want):
    for rank, got in enumerate(results):
        assert sorted(got) == sorted(want), rank
        for kind in want:
            assert got[kind] == want[kind], (rank, kind)


@pytest.mark.parametrize("fusion", sorted(FUSIONS))
@pytest.mark.parametrize("overlap", [False, True], ids=["serial", "overlap"])
@pytest.mark.parametrize("opt_name", sorted(OPTIMIZERS))
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
    assert_all_ranks_equal(results, oracle(world, opt_name))


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
    want = fit(3, OPTIMIZERS["adam"], train, optimizer_cls=AllreduceThenUpdate)[0]
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
    assert_all_ranks_equal(results, oracle(2, "adam", epochs=8))


def test_iterations_advance_before_the_first_bucket_updates(owner_calls):
    """Overlapped buckets update during backward, before ``apply_arena``:
    Adam's bias correction and ``decay`` must already see this step."""
    make = lambda: Adam(lr=0.01, decay=0.1)  # noqa: E731
    train = TrainOptions(overlap=True, collective=CollectiveOptions(fusion_bytes=512))
    want = fit(2, make, TrainOptions(arena=False), optimizer_cls=RecordingOptimizer)[0]
    results = fit(2, make, train)
    assert owner_calls
    assert_all_ranks_equal(results, want)


@pytest.mark.parametrize(
    "set_weights", [False, True], ids=["no_broadcast", "set_weights_after_broadcast"]
)
def test_ranks_with_their_own_weights_each_update_their_own(set_weights, owner_calls):
    """Ranks that never synchronized their weights, or wrote their own
    after the broadcast (``set_weights``), keep today's step: the owner
    step would hand every rank the owner's parameters."""
    x, y = data(2)
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
            shard = slice(comm.rank * ROWS, (comm.rank + 1) * ROWS)
            model.fit(x[shard], y[shard], batch_size=BATCH, shuffle=False, train=train)
            return model.get_weights()
        finally:
            hvd.shutdown()

    w0, w1 = run_spmd(2, worker)
    assert not owner_calls
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
    """``last_info["wire_bytes"]`` prices the gather phase once per slab
    (gradient, parameters, two state slots), as the ranks really send,
    and the chunk spans count the same share. At world 2 the textbook
    ring the plan prices is what runs (from 3 ranks on, the reduce phase
    forwards contributions unreduced)."""
    n, world, kinds = 3000, 2, 4
    opts = CollectiveOptions(algorithm="ring", chunk_bytes=8000)

    def worker(comm):
        slabs = [np.random.default_rng(comm.rank).normal(size=n)]
        slabs += [np.full(n, 0.5) for _ in range(kinds - 1)]
        spans = SpanRecorder()
        engine = CollectiveEngine(comm, options=opts, tracer=spans)
        before = comm.stats.as_dict()
        engine.allreduce_update(slabs, lambda lo, hi: None, name="g")
        after = comm.stats.as_dict()
        sent = after["bytes_sent"] - before["bytes_sent"]
        messages = after["sends"] - before["sends"]
        return engine.last_info, sent, messages, spans.bytes

    chunks = 3  # 24,000 bytes in 8,000-byte chunks
    segment = n * 8 / chunks / world  # one rank's share of one chunk
    want = chunks * (world - 1) * segment * (1 + kinds)  # reduce + gather
    # the gradient's bytes, scaled as the wire bytes are: (1 + kinds) / 2
    payload = n * 8 * (1 + kinds) // 2
    for info, sent, messages, span_bytes in run_spmd(world, worker):
        assert info["algorithm"] == "ring" and info["chunks"] == chunks
        assert info["wire_bytes"] == want
        assert info["payload_bytes"] == sum(span_bytes) == payload
        # the payloads add one 8-byte index or rank key per segment sent
        # (and one empty acknowledgement per chunk)
        assert 0 <= sent - want <= 8 * messages


def test_a_one_bucket_plan_runs_on_the_rank_thread(owner_calls):
    """The bucket is released by the last backward event, so nothing can
    overlap it: no channel thread, and no communication hidden."""
    train = TrainOptions(overlap=True)  # the default fusion: one bucket
    x, y = data(2)

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
                shard = slice(comm.rank * ROWS, (comm.rank + 1) * ROWS)
                for start in range(0, ROWS, BATCH):
                    rows = slice(shard.start + start, shard.start + start + BATCH)
                    model.train_on_batch(x[rows], y[rows])
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
# runs that keep allreduce-then-update
# ---------------------------------------------------------------------------


def test_an_emulated_fabric_fit_keeps_allreduce_then_update(owner_calls):
    """The overlap buckets reduce with ``fit``'s options, which may differ
    from the optimizer's: an emulated-fabric ``fit`` with a
    default-options optimizer must train with a plain allreduce, not fail
    in the owner step."""
    x, y = data(2)
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
            shard = slice(comm.rank * ROWS, (comm.rank + 1) * ROWS)
            model.fit(
                x[shard], y[shard], batch_size=BATCH, shuffle=False, train=emulated,
                callbacks=[hvd.BroadcastGlobalVariablesCallback(0)],
            )
            return model.last_overlap_stats.buckets, model.arena.params_flat.tobytes()
        finally:
            hvd.shutdown()

    (buckets, got0), (_, got1) = run_spmd(2, worker)
    assert buckets > 0 and not owner_calls
    assert got0 == got1


@pytest.mark.parametrize("overlap", [False, True], ids=["serial", "overlap"])
def test_an_emulated_fabric_keeps_allreduce_then_update(overlap, owner_calls):
    """Under an emulated fabric the gather's extra slabs cost priced wire
    time, so the step keeps allreduce-then-update (same bits)."""
    train = TrainOptions(
        overlap=overlap,
        collective=CollectiveOptions(
            fusion_bytes=512, emulate_fabric="summit", emulate_fabric_scale=1.0
        ),
    )
    results = fit(2, OPTIMIZERS["adam"], train)
    assert not owner_calls
    assert_all_ranks_equal(results, oracle(2, "adam"))


@pytest.mark.parametrize("overlap", [False, True], ids=["serial", "overlap"])
def test_fault_tolerant_engine_keeps_allreduce_then_update(overlap, owner_calls):
    """A retried or restarted collective must never apply an update
    twice, so the FT engine reduces first and the base optimizer updates
    once, after it."""
    train = TrainOptions(
        overlap=overlap,
        collective=CollectiveOptions(
            fusion_bytes=512,
            fault_tolerance=FaultToleranceOptions(heartbeat_interval_s=0.01),
        ),
    )
    results = fit(2, OPTIMIZERS["adam"], train)
    assert not owner_calls
    assert_all_ranks_equal(results, oracle(2, "adam"))
