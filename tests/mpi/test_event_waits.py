"""The message path waits on events: arrival and abort wake a blocked rank.

Every test here runs with ``time.sleep`` *as seen from*
``repro.mpi.communicator`` replaced by a function that raises, so any
sleep-and-look-again loop on the message path fails the test. Ordering
is made exact, not likely: rank 1's arrival condition is a spy that
flags the moment rank 1 goes to sleep on it (lock held), and the other
side acts only after that flag — so "sent after the receiver blocked"
is a fact of the schedule, not a guess about timing.
"""

from __future__ import annotations

import sys
import threading
import time
import types

import pytest

from repro.mpi import communicator as communicator_module
from repro.mpi import run_spmd
from repro.mpi.communicator import AbortError, Communicator, DeadlockError, _Context

#: generous liveness bound: a wake-up that takes this long is a hang
JOIN_S = 10.0


class SpyCondition(threading.Condition):
    """An arrival condition that reports when its rank goes to sleep."""

    def __init__(self):
        super().__init__()
        self.blocked = threading.Event()

    def wait(self, timeout=None):
        # still holding the lock: nobody can put/notify before we sleep
        self.blocked.set()
        return super().wait(timeout)


@pytest.fixture(autouse=True)
def no_sleep_on_the_message_path(monkeypatch):
    def sleep(_seconds):
        raise AssertionError("repro.mpi.communicator called time.sleep")

    monkeypatch.setattr(
        communicator_module,
        "time",
        types.SimpleNamespace(monotonic=time.monotonic, sleep=sleep),
    )


def blocked_receiver(receive, timeout: float = 60.0):
    """Start ``receive(comm1)`` on a thread and return once it sleeps.

    Returns ``(context, spy, outcome, thread)``; ``outcome`` gets
    ``value`` or ``error`` when the receiver finishes.
    """
    ctx = _Context(2, timeout=timeout)
    spy = ctx._arrivals[1] = SpyCondition()
    outcome: dict = {}

    def run():
        try:
            outcome["value"] = receive(Communicator(ctx, 1))
        except BaseException as exc:  # noqa: BLE001 — the test inspects it
            outcome["error"] = exc

    thread = threading.Thread(target=run, name="blocked-receiver", daemon=True)
    thread.start()
    assert spy.blocked.wait(JOIN_S), "receiver never blocked"
    return ctx, spy, outcome, thread


#: the three blocking receives, each from rank 0 on tag 3
RECEIVES = {
    "recv": lambda comm: comm.recv(0, tag=3),
    "recv_within": lambda comm: comm.recv_within(0, tag=3, timeout=60.0),
    "recv_any": lambda comm: comm.recv_any([0], tag=3)[1],
}


@pytest.mark.parametrize("name", RECEIVES)
def test_message_sent_after_blocking_is_delivered(name):
    ctx, _, outcome, thread = blocked_receiver(RECEIVES[name])
    Communicator(ctx, 0).send({"late": name}, 1, tag=3)
    thread.join(JOIN_S)
    assert not thread.is_alive()
    assert outcome == {"value": {"late": name}}


@pytest.mark.parametrize("name", RECEIVES)
def test_abort_raises_in_a_blocked_rank_without_a_timeout(name):
    # the receive's own deadline is 60 s; only the abort can end it
    ctx, _, outcome, thread = blocked_receiver(RECEIVES[name])
    ctx.abort(RuntimeError("peer crashed"))
    thread.join(JOIN_S)
    assert not thread.is_alive()
    assert isinstance(outcome.get("error"), AbortError)
    assert "peer crashed" in str(outcome["error"])


def test_direct_mailbox_put_wakes_recv_any():
    # a put that bypasses Communicator.send still notifies the receiver
    ctx, _, outcome, thread = blocked_receiver(
        lambda comm: comm.recv_any([0], tag=3)
    )
    ctx.mailbox(0, 1, 3).put("retransmitted")
    thread.join(JOIN_S)
    assert outcome == {"value": (0, "retransmitted")}


def test_put_for_another_tag_does_not_satisfy_the_wait():
    ctx, spy, outcome, thread = blocked_receiver(lambda comm: comm.recv(0, tag=3))
    sender = Communicator(ctx, 0)
    spy.blocked.clear()
    sender.send("other stream", 1, tag=4)
    assert spy.blocked.wait(JOIN_S)  # woke, found nothing, slept again
    assert "value" not in outcome
    sender.send("mine", 1, tag=3)
    thread.join(JOIN_S)
    assert outcome == {"value": "mine"}


def test_per_pair_order_survives_a_blocked_start():
    def receive(comm):
        return [comm.recv(0, tag=3) for _ in range(50)]

    ctx, _, outcome, thread = blocked_receiver(receive)
    sender = Communicator(ctx, 0)
    for i in range(50):
        sender.send(i, 1, tag=3)
    thread.join(JOIN_S)
    assert outcome == {"value": list(range(50))}


EXPIRING = {
    "recv": (lambda comm: comm.recv(0, tag=3), "recv from 0 tag 3"),
    "recv_within": (
        lambda comm: comm.recv_within(0, tag=3, timeout=0.05),
        "recv_within from 0 tag 3",
    ),
    "recv_any": (
        lambda comm: comm.recv_any([0], tag=3, timeout=0.05),
        r"recv_any from \[0\] tag 3",
    ),
}


@pytest.mark.parametrize("name", EXPIRING)
def test_deadlock_error_still_fires_on_expiry(name):
    receive, message = EXPIRING[name]
    comm = Communicator(_Context(2, timeout=0.05), 1)
    with pytest.raises(DeadlockError, match=message + " timed out after 0.05s"):
        receive(comm)


def test_none_is_a_payload_not_an_absence():
    ctx, _, outcome, thread = blocked_receiver(lambda comm: comm.recv(0, tag=3))
    Communicator(ctx, 0).send(None, 1, tag=3)
    thread.join(JOIN_S)
    assert outcome == {"value": None}


def test_many_senders_one_sleeping_receiver_lose_nothing():
    # more ranks than cores and a 10 µs switch interval: every put races
    # the receiver going to sleep; a lost wake-up shows as a timeout, a
    # lost or reordered message in the per-source sequences
    senders, each = 6, 300

    def node(comm):
        if comm.rank == 0:
            got = {src: [] for src in range(1, senders + 1)}
            for _ in range(senders * each):
                src, value = comm.recv_any(list(got), tag=3)
                got[src].append(value)
            return got
        for i in range(each):
            comm.send(i, 0, tag=3)
        return None

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = run_spmd(senders + 1, node, timeout=JOIN_S)[0]
    finally:
        sys.setswitchinterval(interval)
    assert got == {src: list(range(each)) for src in range(1, senders + 1)}
