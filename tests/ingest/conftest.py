"""Fixtures for the ingest suite: real CSVs of both problematic shapes,
and a guard that fails any test leaving a thread or a temp dir behind."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.frame import write_csv

#: how long a thread still running at teardown gets to finish on its own
_THREAD_GRACE_S = 2.0


@pytest.fixture(autouse=True)
def no_leftovers(request):
    """Fail the test if it leaves a non-daemon thread alive, or a
    ``.tmp-*`` directory (a column-store writer's scratch) under its
    ``tmp_path``. Daemon threads are the prefetcher's business and are
    tested there."""
    before = set(threading.enumerate())
    tmp_path = (
        request.getfixturevalue("tmp_path") if "tmp_path" in request.fixturenames else None
    )
    yield
    deadline = time.monotonic() + _THREAD_GRACE_S
    leaked = []
    for thread in threading.enumerate():
        if thread in before or thread.daemon:
            continue
        thread.join(max(0.0, deadline - time.monotonic()))
        if thread.is_alive():
            leaked.append(thread.name)
    assert not leaked, f"non-daemon threads left running: {leaked}"
    if tmp_path is not None:
        left = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob(".tmp-*"))
        assert not left, f"temp dirs left under tmp_path: {left}"


@pytest.fixture(scope="module")
def mixed_csv(tmp_path_factory):
    """A CSV with an int label column and float feature columns —
    the CANDLE file shape, plus dtype variety to stress promotion."""
    rng = np.random.default_rng(7)
    matrix = np.column_stack(
        [
            rng.integers(0, 5, size=397).astype(np.float64),
            rng.random((397, 23)) * 100.0,
            rng.integers(-1000, 1000, size=(397, 3)).astype(np.float64),
        ]
    )
    path = tmp_path_factory.mktemp("ingest") / "mixed.csv"
    write_csv(path, matrix)
    return str(path)


@pytest.fixture(scope="module")
def wide_csv(tmp_path_factory):
    """A wide-row file (many columns, few rows): the NT3 geometry that
    triggers the paper's slow-path degeneration."""
    rng = np.random.default_rng(11)
    matrix = np.column_stack(
        [rng.integers(0, 2, size=40).astype(np.float64), rng.random((40, 800))]
    )
    path = tmp_path_factory.mktemp("ingest") / "wide.csv"
    write_csv(path, matrix)
    return str(path)
