"""Shared fixtures for the repro test suite, and a guard that fails any
test leaving a thread or a temp dir behind."""

from __future__ import annotations

import threading
import time

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


@pytest.fixture(autouse=True)
def no_leftovers(request):
    """Fail the test if it leaves a non-daemon thread or a
    :class:`~repro.worker.Worker`'s thread alive, or a ``.tmp-*``
    directory (a column-store writer's scratch) under its ``tmp_path``.
    Every worker is closed by its owner; the one exemption is
    :mod:`repro.nn.halves`' process-wide helper, which lives as long as
    the process."""
    before = set(threading.enumerate())
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
