"""The leak guard in ``tests/conftest.py`` sees a child process.

The cold ``cached`` parse forks a child, and a run that leaves one
behind is a failure, so ``no_leftovers`` fails a test that leaves a
child running or unreaped. These cases hold its helper to that, with
the child reaped before each test ends.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from tests.conftest import child_pids, children_left

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or child_pids() is None, reason="cannot list child processes"
)


def _wait_exited(pid: int) -> None:
    """Until ``pid`` has exited (left unreaped)."""
    for _ in range(500):
        if os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None:
            return
        time.sleep(0.01)
    raise AssertionError(f"child {pid} did not exit")


def test_a_running_or_unreaped_child_is_left_over():
    before = child_pids()
    pid = os.fork()
    if pid == 0:
        try:
            signal.pause()
        finally:
            os._exit(0)
    try:
        assert children_left(before) in ([pid], ["?"])  # running
        os.kill(pid, signal.SIGKILL)
        _wait_exited(pid)
        assert children_left(before) in ([pid], ["?"])  # exited, unreaped
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert children_left(before) == []
