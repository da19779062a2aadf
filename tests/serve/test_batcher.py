"""DynamicBatcher: flush triggers, admission policies, drain semantics.

Timing-dependent paths run on a hand-stepped fake clock — a deadline
expiry here is ``clock.advance(...)``, not a sleep — so every edge
(empty queue, oversized request, expiry mid-assembly) is deterministic.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.serve import DynamicBatcher, Request, ServeOptions


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def make_request(req_id: int, rows: int, clock: FakeClock) -> Request:
    return Request(
        req_id=req_id,
        features=np.full((rows, 3), float(req_id)),
        arrival_s=clock(),
        deadline_s=clock() + 1.0,
    )


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


def make_batcher(clock, **overrides) -> DynamicBatcher:
    defaults = dict(max_batch=8, deadline_ms=100.0, queue_depth=4)
    defaults.update(overrides)
    return DynamicBatcher(ServeOptions(**defaults), clock=clock)


class TestFlushTriggers:
    def test_empty_queue_polls_none(self, clock):
        assert make_batcher(clock).poll() is None

    def test_fresh_partial_batch_is_held(self, clock):
        batcher = make_batcher(clock)
        batcher.offer(make_request(0, rows=2, clock=clock))
        assert batcher.poll() is None  # budget not spent, batch not full

    def test_full_batch_flushes_immediately(self, clock):
        batcher = make_batcher(clock)
        for i in range(4):
            batcher.offer(make_request(i, rows=2, clock=clock))
        batch = batcher.poll()
        assert batch is not None and batch.rows == 8
        assert [r.req_id for r in batch.requests] == [0, 1, 2, 3]
        assert len(batcher) == 0

    def test_oversized_request_flushes_alone(self, clock):
        batcher = make_batcher(clock)  # max_batch=8
        batcher.offer(make_request(0, rows=13, clock=clock))
        batch = batcher.poll()
        assert batch is not None and batch.rows == 13
        assert len(batch.requests) == 1

    def test_deadline_expiry_flushes_partial(self, clock):
        # assemble budget = 100ms * 0.5 = 50ms
        batcher = make_batcher(clock)
        batcher.offer(make_request(0, rows=2, clock=clock))
        clock.advance(0.049)
        assert batcher.poll() is None
        clock.advance(0.002)  # oldest is now past its budget
        batch = batcher.poll()
        assert batch is not None and batch.rows == 2

    def test_expiry_mid_assembly_takes_later_arrivals_too(self, clock):
        batcher = make_batcher(clock)
        batcher.offer(make_request(0, rows=2, clock=clock))
        clock.advance(0.04)
        batcher.offer(make_request(1, rows=3, clock=clock))  # fresh
        clock.advance(0.02)  # only request 0 has expired
        batch = batcher.poll()
        assert batch is not None
        # the flush drains everything that still fits under max_batch
        assert [r.req_id for r in batch.requests] == [0, 1]
        assert batch.rows == 5

    def test_flush_respects_max_batch_boundary(self, clock):
        batcher = make_batcher(clock, max_batch=4)
        for i in range(3):
            batcher.offer(make_request(i, rows=3, clock=clock))
        batch = batcher.poll()
        assert [r.req_id for r in batch.requests] == [0]  # 3+3 > 4
        assert len(batcher) == 2

    def test_batch_features_concatenate_in_order(self, clock):
        batcher = make_batcher(clock, max_batch=4)
        batcher.offer(make_request(7, rows=2, clock=clock))
        batcher.offer(make_request(8, rows=2, clock=clock))
        batch = batcher.poll()
        assert batch.features.shape == (4, 3)
        np.testing.assert_array_equal(batch.features[:2], 7.0)
        np.testing.assert_array_equal(batch.features[2:], 8.0)
        slices = dict(
            (req.req_id, row_slice) for req, row_slice in batch.slices()
        )
        assert slices == {7: slice(0, 2), 8: slice(2, 4)}


class TestAdmission:
    def fill(self, batcher, clock, n):
        for i in range(n):
            assert batcher.offer(make_request(i, rows=1, clock=clock)) == "accepted"

    def test_reject_policy(self, clock):
        batcher = make_batcher(clock, admission="reject", queue_depth=2)
        self.fill(batcher, clock, 2)
        assert batcher.offer(make_request(9, rows=1, clock=clock)) == "rejected"
        assert (batcher.accepted, batcher.rejected) == (2, 1)

    def test_block_policy_times_out(self):
        # block needs the real clock: the wait is a condition timeout
        batcher = DynamicBatcher(
            ServeOptions(admission="block", queue_depth=1, max_batch=8)
        )
        batcher.offer(make_request(0, rows=1, clock=FakeClock()))
        outcome = batcher.offer(
            make_request(1, rows=1, clock=FakeClock()), timeout=0.05
        )
        assert outcome == "rejected"

    def test_block_policy_admits_when_space_frees(self):
        batcher = DynamicBatcher(
            ServeOptions(admission="block", queue_depth=1, max_batch=1)
        )
        batcher.offer(make_request(0, rows=1, clock=FakeClock()))
        def drain():
            batcher.poll()  # frees the slot (max_batch=1 → flush-ready)

        t = threading.Timer(0.02, drain)
        t.start()
        outcome = batcher.offer(
            make_request(1, rows=1, clock=FakeClock()), timeout=5.0
        )
        t.join()
        assert outcome == "accepted"


class TestCloseAndDrain:
    def test_offer_after_close_rejected(self, clock):
        batcher = make_batcher(clock)
        batcher.close()
        assert batcher.offer(make_request(0, rows=1, clock=clock)) == "rejected"

    def test_close_makes_partial_flush_worthy(self, clock):
        batcher = make_batcher(clock)
        batcher.offer(make_request(0, rows=1, clock=clock))
        assert batcher.poll() is None
        batcher.close()
        batch = batcher.poll()
        assert batch is not None and batch.rows == 1


class TestSecondsUntilFlush:
    """What a dispatcher sleeping elsewhere asks: how long may I sleep?"""

    def test_empty_queue_has_nothing_to_wait_for(self, clock):
        assert make_batcher(clock).seconds_until_flush() is None

    def test_partial_batch_reports_the_rest_of_the_oldest_budget(self, clock):
        batcher = make_batcher(clock)  # budget = 100ms * 0.5
        batcher.offer(make_request(0, rows=2, clock=clock))
        assert batcher.seconds_until_flush() == pytest.approx(0.05)
        clock.advance(0.03)
        batcher.offer(make_request(1, rows=2, clock=clock))  # newer: no effect
        assert batcher.seconds_until_flush() == pytest.approx(0.02)
        clock.advance(0.02)
        assert batcher.seconds_until_flush() == 0.0
        clock.advance(1.0)  # long overdue is still "now", never negative
        assert batcher.seconds_until_flush() == 0.0
        assert batcher.poll().rows == 4

    def test_full_batch_is_due_now(self, clock):
        batcher = make_batcher(clock)
        for i in range(4):
            batcher.offer(make_request(i, rows=2, clock=clock))
        assert batcher.seconds_until_flush() == 0.0
        batcher.poll()
        assert batcher.seconds_until_flush() is None

    def test_leftover_after_a_flush_restarts_from_its_own_arrival(self, clock):
        batcher = make_batcher(clock)
        for i in range(3):
            batcher.offer(make_request(i, rows=3, clock=clock))
            clock.advance(0.01)
        assert batcher.poll().rows == 6  # 3+3, the third does not fit
        # request 2 arrived at t=0.02; now t=0.03
        assert batcher.seconds_until_flush() == pytest.approx(0.04)

    def test_closed_drains_now_then_has_nothing(self, clock):
        batcher = make_batcher(clock)
        batcher.offer(make_request(0, rows=1, clock=clock))
        batcher.close()
        assert batcher.seconds_until_flush() == 0.0
        batcher.poll()
        assert batcher.seconds_until_flush() is None

    def test_agrees_with_poll_at_every_step(self, clock):
        batcher = make_batcher(clock, admission="reject")
        rng = np.random.default_rng(3)
        for i in range(200):
            if rng.random() < 0.6:
                batcher.offer(make_request(i, rows=int(rng.integers(1, 4)), clock=clock))
            clock.advance(float(rng.random()) * 0.02)
            due = batcher.seconds_until_flush()
            batch = batcher.poll()
            assert (batch is not None) == (due == 0.0)


class TestWake:
    """``wake`` fires only when the next forced flush moved earlier."""

    def make(self, clock, **overrides):
        wakes = []
        defaults = dict(max_batch=8, deadline_ms=100.0, queue_depth=16)
        defaults.update(overrides)
        batcher = DynamicBatcher(
            ServeOptions(**defaults), clock=clock, wake=lambda: wakes.append(1)
        )
        return batcher, wakes

    def test_first_arrival_and_batch_fill_wake_others_do_not(self, clock):
        batcher, wakes = self.make(clock)
        batcher.offer(make_request(0, rows=2, clock=clock))
        assert len(wakes) == 1  # queue went non-empty: a budget now runs
        batcher.offer(make_request(1, rows=2, clock=clock))
        batcher.offer(make_request(2, rows=2, clock=clock))
        assert len(wakes) == 1  # oldest unchanged, batch not full
        batcher.offer(make_request(3, rows=2, clock=clock))
        assert len(wakes) == 2  # 8 rows: flush-worthy now
        batcher.offer(make_request(4, rows=2, clock=clock))
        assert len(wakes) == 2  # already due; the dispatcher knows

    def test_oversized_first_request_wakes_once(self, clock):
        batcher, wakes = self.make(clock)
        batcher.offer(make_request(0, rows=13, clock=clock))
        assert len(wakes) == 1

    def test_refused_offers_do_not_wake(self, clock):
        batcher, wakes = self.make(clock, admission="reject", queue_depth=1)
        batcher.offer(make_request(0, rows=1, clock=clock))
        assert batcher.offer(make_request(1, rows=1, clock=clock)) == "rejected"
        assert len(wakes) == 1

    def test_close_wakes(self, clock):
        batcher, wakes = self.make(clock)
        batcher.close()
        assert len(wakes) == 1


def test_row_count_survives_concurrent_offers_and_polls():
    # four submitters against one dispatcher at a 10 µs switch interval:
    # the queued-rows counter must equal the queue's rows at the end,
    # and every accepted row is either dispatched or still queued
    batcher = DynamicBatcher(
        ServeOptions(max_batch=8, admission="reject", queue_depth=32)
    )
    clock = FakeClock()
    dispatched = []
    stop = threading.Event()

    def submit(base):
        for i in range(500):
            batcher.offer(make_request(base + i, rows=1 + i % 3, clock=clock))

    def dispatch():
        while not stop.is_set() or len(batcher):
            batch = batcher.poll()
            if batch is not None:
                dispatched.append(batch.rows)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=submit, args=(k * 1000,)) for k in range(4)]
        dispatcher = threading.Thread(target=dispatch)
        for t in [*threads, dispatcher]:
            t.start()
        for t in threads:
            t.join(30.0)
        batcher.close()  # drain: whatever is left is flush-worthy
        stop.set()
        dispatcher.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not dispatcher.is_alive() and not any(t.is_alive() for t in threads)
    assert batcher._rows == 0 and len(batcher) == 0
    assert batcher.accepted + batcher.rejected == 2000
    assert len(dispatched) >= batcher.accepted / 8
