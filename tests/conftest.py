"""Shared fixtures for the repro test suite, and a guard that fails any
test leaving a thread, a child process or a temp dir behind."""

from __future__ import annotations

import glob
import os
import threading
import time
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import settings

from repro import worker

# `--hypothesis-profile=deep`: the local budget of the differential suites
# (tests/frame/test_parser_differential.py); tier-1 keeps each test's own
settings.register_profile("deep", max_examples=600, deadline=None)

#: how long a thread still running at teardown gets to finish on its own
_THREAD_GRACE_S = 2.0


def _is_worker(thread: threading.Thread) -> bool:
    """A Worker's thread, other than the process-wide halves helper."""
    return isinstance(thread, worker._WorkerThread) and thread.name != "repro.nn.halves"


def child_pids() -> Optional[set]:
    """This process's children, running or not yet reaped: their pids,
    an empty set when there are none, None when there are some that
    this platform cannot list (no ``/proc/self/task/*/children``) or
    when it cannot tell (no ``os.waitid``)."""
    if not hasattr(os, "waitid"):
        return None
    try:  # WNOWAIT: a finished child stays unreaped for its owner
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return set()
    files = glob.glob("/proc/self/task/*/children")
    if not files:
        return None
    return {int(pid) for name in files for pid in Path(name).read_text().split()}


def children_left(before: Optional[set]) -> list:
    """Children present now that were not in ``before`` (a
    :func:`child_pids` taken earlier); ``["?"]`` for some that cannot be
    listed when there were none before."""
    now = child_pids()
    if now is None:
        return ["?"] if before == set() else []
    return [] if before is None else sorted(now - before)


@pytest.fixture(autouse=True)
def no_leftovers(request):
    """Fail the test if it leaves a non-daemon thread or a
    :class:`~repro.worker.Worker`'s thread alive, a child process running
    or unreaped, or a ``.tmp-*`` directory (a column-store writer's
    scratch) under its ``tmp_path``. Every worker is closed by its owner;
    the one exemption is :mod:`repro.nn.halves`' process-wide helper,
    which lives as long as the process."""
    before = set(threading.enumerate())
    children = child_pids()
    tmp_path = (
        request.getfixturevalue("tmp_path") if "tmp_path" in request.fixturenames else None
    )
    yield
    deadline = time.monotonic() + _THREAD_GRACE_S
    leaked = []
    for thread in threading.enumerate():
        if thread in before or (thread.daemon and not _is_worker(thread)):
            continue
        thread.join(max(0.0, deadline - time.monotonic()))
        if thread.is_alive():
            leaked.append(thread.name)
    assert not leaked, f"non-daemon or worker threads left running: {leaked}"
    while (orphans := children_left(children)) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not orphans, f"child processes left running or unreaped: {orphans}"
    if tmp_path is not None:
        left = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob(".tmp-*"))
        assert not left, f"temp dirs left under tmp_path: {left}"


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic per-test RNG."""
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_classification(rng):
    """A small, clearly separable 2-class dataset: (x, y_onehot)."""
    n, f = 120, 12
    x = rng.normal(size=(n, f))
    labels = (x[:, :4].sum(axis=1) > 0).astype(int)
    y = np.eye(2)[labels]
    return x, y


@pytest.fixture
def csv_file(tmp_path, rng):
    """A small numeric CSV on disk; returns (path, matrix)."""
    from repro.frame import write_csv

    matrix = np.column_stack(
        [rng.integers(0, 3, size=50), rng.random((50, 9)) * 100.0]
    )
    path = tmp_path / "data.csv"
    write_csv(path, matrix)
    return str(path), matrix
