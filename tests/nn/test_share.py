"""``repro.nn.halves.share``, the task list two threads claim from.

Properties over 0–64 tasks, some of which raise: every task runs at most
once, and exactly once when none raises; ``share`` returns only after
the helper has stopped (no task is running, and none starts, after it
returns); an error raised on the helper reaches the caller, chained to
the caller's own when both lanes raised; a ``share`` called inside a
task runs inline, on that task's thread; and a forked child, whose copy
of the helper has no thread behind it, completes a shared call.

The list is forced to be shared by patching ``halves.MIN_WORK`` to 0
and the core count to 2. Tasks yield the GIL at drawn points, so the
two threads interleave their claims.

Hypothesis budget: 40 derandomized examples per property in tier-1, 600
with ``--hypothesis-profile=deep`` (registered in ``tests/conftest.py``).
"""

import multiprocessing
import os
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import halves

if settings.default is settings.get_profile("deep"):
    FUZZ = settings()
else:
    FUZZ = settings(max_examples=40, derandomize=True, deadline=None)


@pytest.fixture(autouse=True)
def shared(monkeypatch):
    """Share every list of two tasks or more made on the main thread."""
    monkeypatch.setattr(halves, "MIN_WORK", 0)
    monkeypatch.setattr(halves, "_CORES", 2)


class TaskError(Exception):
    """Raised by task ``i`` on ``lane``."""

    def __init__(self, i, lane):
        super().__init__(i, lane)
        self.i, self.lane = i, lane


@st.composite
def task_lists(draw):
    count = draw(st.integers(0, 64))
    indices = st.integers(0, max(0, count - 1))
    return dict(
        count=count,
        raises=draw(st.sets(indices, max_size=3)) if count else set(),
        # a call inside a task of a shared list (a one-task list is not)
        nested=draw(st.sets(indices, max_size=3)) if count >= 2 else set(),
        yields=draw(st.sets(indices, max_size=16)) if count else set(),
    )


def run(case):
    """``share`` over the case's tasks: ``(log, error raised, raises)``,
    ``log`` holding ``(i, lane, thread)`` per task that started and
    ``raises`` the ``TaskError`` of each task that raised."""
    log, ends, raises = [], [], []

    def task(i, lane):
        log.append((i, lane, threading.get_ident()))
        if i in case["yields"]:
            time.sleep(0)
        if i in case["nested"]:
            inner = []
            halves.share([lambda lane, j=j: inner.append((j, lane, threading.get_ident()))
                          for j in range(3)], 0)
            # inline: in order, on this thread, as lane 0
            assert inner == [(j, 0, threading.get_ident()) for j in range(3)]
        if i in case["raises"]:
            raises.append(TaskError(i, lane))
            ends.append(i)
            raise raises[-1]
        ends.append(i)

    tasks = [lambda lane, i=i: task(i, lane) for i in range(case["count"])]
    halves.share([lambda lane: None] * 2, 0)  # the helper is running
    submits = []
    halves._helper.submit = lambda fn: submits.append(fn) or type(halves._helper).submit(
        halves._helper, fn)
    error = None
    try:
        halves.share(tasks, 0)
    except TaskError as exc:
        error = exc
    finally:
        del halves._helper.submit  # the class's method again
    # one helper job for a shared list, none for a nested call
    assert len(submits) == (case["count"] >= 2)
    # the helper has stopped: every task that started has ended, and no
    # task starts after the call returned
    seen = len(log)
    assert len(ends) == seen
    time.sleep(0.001)
    assert len(log) == seen
    return log, error, raises


@FUZZ
@given(task_lists())
def test_every_task_runs_at_most_once_and_errors_reach_the_caller(case):
    log, error, raises = run(case)
    ran = [i for i, _, _ in log]
    assert len(ran) == len(set(ran)) and set(ran) <= set(range(case["count"]))
    if case["count"] < 2:  # nothing to share: inline
        assert {lane for _, lane, _ in log} <= {0}
    if not raises:
        assert error is None and sorted(ran) == list(range(case["count"]))
        return
    # each lane stops at its first error
    by_lane = {exc.lane: exc for exc in raises}
    assert len(by_lane) == len(raises)
    if 1 in by_lane:
        assert error is by_lane[1]
        if 0 in by_lane:
            assert error.__context__ is by_lane[0]
    else:
        assert error is by_lane[0]


def _share_in_child(count):
    seen = []
    halves.share([lambda lane, i=i: seen.append(i) for i in range(count)], 0)
    assert sorted(seen) == list(range(count))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
@FUZZ
@given(st.integers(0, 64))
def test_a_forked_child_completes_a_shared_call(count):
    halves.share([lambda lane: None] * 2, 0)  # the parent's helper is running
    child = multiprocessing.get_context("fork").Process(target=_share_in_child, args=(count,))
    child.start()
    child.join(timeout=10)  # a hung child costs this per example Hypothesis tries
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child hung on its parent's helper")
    assert child.exitcode == 0
