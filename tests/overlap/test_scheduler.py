"""OverlapScheduler: bit-identity, delivery order, drain fence.

The wait-free scheduler's contract is the serialized step's contract,
only earlier: overlapped training must land *bitwise* the parameters the
serialized reduce-then-update step lands, for every optimizer, because
it reduces the same fusion-group buffers through the same planned
schedules and only moves them off the critical path.
"""

import sys

import numpy as np
import pytest

from repro import hvd
from repro.comms import CollectiveOptions
from repro.mpi import run_spmd
from repro.nn import (
    Activation,
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    MaxPooling1D,
    Sequential,
)
from repro.nn.optimizers import SGD, Adam, RMSprop
from repro.train import TrainOptions

#: small fusion so the miniature model splits into several buckets
SMALL_FUSION = CollectiveOptions(fusion_bytes=512)


def nt3_shaped(seed=0, train=None):
    model = Sequential(
        [
            Conv1D(4, 3, activation="relu"),
            MaxPooling1D(2),
            Flatten(),
            Dense(16, activation="relu"),
            Dropout(0.1),
            Dense(3),
            Activation("softmax"),
        ]
    )
    model.build((24, 1), seed=seed, train=train)
    return model


def class_data(seed=0, n=32, steps=24, classes=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, steps, 1))
    y = np.eye(classes)[rng.integers(0, classes, size=n)]
    return x, y


def _weights_and_stats(model):
    return model.get_weights(), model.last_overlap_stats


def fit_weights(train, make_opt, world=2, epochs=2, result=_weights_and_stats):
    """SPMD fit under ``train``; per-rank ``result(model)`` (by default
    the final weights and the overlap stats)."""
    x, y = class_data(n=world * 16)

    def worker(comm):
        hvd.init(comm, options=train.collective)
        try:
            model = nt3_shaped(seed=11 + comm.rank, train=train)
            model.compile(
                hvd.DistributedOptimizer(make_opt(), train=train),
                "categorical_crossentropy",
            )
            shard = slice(comm.rank * 16, (comm.rank + 1) * 16)
            model.fit(
                x[shard], y[shard], batch_size=8, epochs=epochs,
                shuffle=False, train=train,
                callbacks=[hvd.BroadcastGlobalVariablesCallback(0)],
            )
            return result(model)
        finally:
            hvd.shutdown()

    return run_spmd(world, worker)


class TestBitIdentity:
    @pytest.mark.parametrize(
        "make_opt",
        [
            lambda: SGD(lr=0.05, momentum=0.9),
            lambda: RMSprop(lr=0.01),
            lambda: Adam(lr=0.01),
        ],
        ids=["sgd", "rmsprop", "adam"],
    )
    def test_overlapped_equals_serialized_bitwise(self, make_opt):
        base = TrainOptions(collective=SMALL_FUSION)
        overlapped = fit_weights(base.evolve(overlap=True), make_opt)
        serialized = fit_weights(base, make_opt)
        # ranks agree with each other and with the serialized step
        for weights, _ in overlapped[1:]:
            for a, b in zip(overlapped[0][0], weights):
                assert np.array_equal(a, b)
        for a, b in zip(overlapped[0][0], serialized[0][0]):
            assert np.array_equal(a, b)

    def test_overlap_stats_populated(self):
        """Two channels finish buckets concurrently; with the interpreter
        switching threads every microsecond, no reduction goes uncounted."""
        old = sys.getswitchinterval()
        train = TrainOptions(overlap=True, collective=SMALL_FUSION)

        def result(model):
            groups = model.arena.fusion_groups(SMALL_FUSION.fusion_bytes)
            return model.last_overlap_stats, model.optimizer.allreduce_count, len(groups)

        sys.setswitchinterval(1e-6)
        try:
            results = fit_weights(train, lambda: SGD(lr=0.05), result=result)
        finally:
            sys.setswitchinterval(old)
        for stats, count, buckets in results:
            assert stats is not None
            assert stats.steps == 4  # 2 epochs x 2 steps
            assert buckets >= 2  # both channels carry buckets
            assert stats.buckets == buckets * stats.steps
            assert count == buckets * stats.steps
            assert stats.comm_s > 0
            assert 0.0 <= stats.overlap_fraction <= 1.0
            assert stats.hidden_s + stats.wait_s == pytest.approx(stats.comm_s)


class TestDeliveryOrder:
    def test_single_channel_delivery_is_canonical_and_cross_rank_identical(self):
        """Under injected comm delays, every rank drains the ready-queue
        in the same canonical (release event, priority) order."""
        train = TrainOptions(
            overlap=True,
            overlap_channels=1,
            collective=CollectiveOptions(
                fusion_bytes=512,
                # injected per-chunk delay: the emulated fabric sleeps
                # on the wire, so several release events queue while a
                # bucket is in flight and the heap ordering is observable
                emulate_fabric="summit",
                emulate_fabric_scale=2000.0,
            ),
        )
        x, y = class_data(n=16)

        def worker(comm):
            from repro.hvd.optimizer import DistributedOptimizer
            from repro.overlap import OverlapScheduler

            hvd.init(comm, options=train.collective)
            try:
                model = nt3_shaped(seed=5 + comm.rank, train=train)
                opt = DistributedOptimizer(SGD(lr=0.05), train=train)
                model.compile(opt, "categorical_crossentropy")
                sched = OverlapScheduler.maybe_install(
                    model, opt, train=train
                )
                assert sched is not None and sched.channels == 1
                try:
                    shard = slice(comm.rank * 8, (comm.rank + 1) * 8)
                    model.train_on_batch(x[shard], y[shard])
                    # canonical order: release events run backward
                    # (descending trigger layer), priority inside a group
                    triggers = {}
                    for b in sched._buckets:
                        triggers.setdefault(b.trigger_pos, []).append(b)
                    expected = [
                        b.index
                        for pos in sorted(triggers, reverse=True)
                        for b in sorted(
                            triggers[pos], key=lambda b: (b.priority, b.index)
                        )
                    ]
                    return sched.stats.last_delivery, expected
                finally:
                    sched.close()
            finally:
                hvd.shutdown()

        results = run_spmd(2, worker)
        delivery0, expected = results[0]
        assert len(expected) > 2  # the fusion split actually made buckets
        for delivery, _ in results:
            assert delivery == expected


class TestDrainFence:
    def test_fence_timeout_raises(self, monkeypatch):
        """A bucket that never lands must fail the step loudly."""
        from repro.overlap import scheduler

        monkeypatch.setattr(scheduler, "DRAIN_TIMEOUT_S", 0.2)
        train = TrainOptions(overlap=True, collective=SMALL_FUSION)
        x, y = class_data(n=16)

        def worker(comm):
            from repro.hvd.optimizer import DistributedOptimizer
            from repro.overlap import OverlapScheduler

            hvd.init(comm, options=train.collective)
            try:
                model = nt3_shaped(seed=5 + comm.rank, train=train)
                opt = DistributedOptimizer(SGD(lr=0.05), train=train)
                model.compile(opt, "categorical_crossentropy")
                sched = OverlapScheduler.maybe_install(model, opt, train=train)
                try:
                    # wedge the workers: swallow every release so no
                    # bucket ever reduces, then hit the fence
                    sched._triggers.clear()
                    sched._heaps = [[] for _ in range(sched.channels)]
                    sched.begin_step()
                    sched._pending.clear()  # leftovers stay unreleased too
                    sched._done = -10_000
                    with pytest.raises(RuntimeError, match="timed out"):
                        sched.finish_step(model.arena)
                    return True
                finally:
                    sched.close()
            finally:
                hvd.shutdown()

        assert all(run_spmd(2, worker))

    def test_ft_rank_kill_drains_and_survivors_agree(self):
        """A rank death mid-step: the FT engine rebuilds under the
        fence, survivors finish the fit and stay bit-identical."""
        from repro.comms.ft import FaultToleranceOptions
        from repro.resilience.faults import FaultInjector, FaultPlan

        fto = FaultToleranceOptions(
            heartbeat_interval_s=0.005,
            chunk_deadline_s=0.1,
            retry_base_delay_s=0.001,
            checksum=True,
        )
        train = TrainOptions(
            overlap=True,
            collective=CollectiveOptions(fusion_bytes=512, fault_tolerance=fto),
        )
        world, victim = 3, 2
        x, y = class_data(n=world * 8)

        def worker(comm):
            hvd.init(comm, options=train.collective)
            try:
                model = nt3_shaped(seed=3 + comm.rank, train=train)
                model.compile(
                    hvd.DistributedOptimizer(SGD(lr=0.05), train=train),
                    "categorical_crossentropy",
                )
                if model.arena is not None and hvd.size() > 1:
                    # FT forces the scheduler serial: one channel only
                    from repro.overlap import OverlapScheduler

                    probe = OverlapScheduler(
                        model, model.optimizer, train=train
                    )
                    try:
                        assert probe.channels == 1
                    finally:
                        probe.close()
                shard = slice(comm.rank * 8, (comm.rank + 1) * 8)
                model.fit(
                    x[shard], y[shard], batch_size=8, epochs=3,
                    shuffle=False, train=train,
                    callbacks=[hvd.BroadcastGlobalVariablesCallback(0)],
                )
                return model.get_weights()
            finally:
                hvd.shutdown()

        plan = FaultPlan.single_message_fault(
            "rank_kill", rank=victim, message=4
        )
        results = run_spmd(world, worker, fault_injector=FaultInjector(plan))
        assert results[victim] is None  # the death was survivable
        survivors = [results[r] for r in range(world) if r != victim]
        assert all(w is not None for w in survivors)
        for weights in survivors[1:]:
            for a, b in zip(survivors[0], weights):
                assert np.array_equal(a, b)
