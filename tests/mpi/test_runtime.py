"""SPMD launcher: results, failures, abort propagation."""

import numpy as np
import pytest

from repro.mpi import AbortError, DeadlockError, run_spmd
from repro.mpi.runtime import SpmdError


def test_results_rank_ordered():
    assert run_spmd(5, lambda comm: comm.rank * 2) == [0, 2, 4, 6, 8]


def test_shared_args():
    assert run_spmd(2, lambda comm, a, b: a + b, 1, 2) == [3, 3]


def test_nprocs_must_be_positive():
    with pytest.raises(ValueError):
        run_spmd(0, lambda comm: None)


def test_single_rank_runs_inline():
    assert run_spmd(1, lambda comm: comm.size) == [1]


def test_failure_carries_rank_and_cause():
    def job(comm):
        if comm.rank == 2:
            raise KeyError("boom")
        comm.barrier()

    with pytest.raises(SpmdError) as exc:
        run_spmd(4, job)
    assert exc.value.rank == 2
    assert isinstance(exc.value.cause, KeyError)


def test_all_rank_failures_aggregated():
    """SpmdError reports every failed rank, not just the first."""

    def job(comm):
        if comm.rank in (1, 3):
            raise ValueError(f"rank {comm.rank} died")
        comm.barrier()

    with pytest.raises(SpmdError) as exc:
        run_spmd(4, job)
    err = exc.value
    assert err.failed_ranks == [1, 3]
    # .rank/.cause stay the lowest-ranked failure for compatibility
    assert err.rank == 1
    assert isinstance(err.cause, ValueError)
    assert all(isinstance(c, ValueError) for _, c in err.failures)
    # the message names every failure
    assert "rank 1" in str(err) and "rank 3" in str(err)


def test_fault_injector_hook_fires_at_rank_start():
    class Injector:
        def __init__(self):
            self.seen = []

        def on_rank_start(self, rank):
            self.seen.append(rank)
            if rank == 2:
                raise RuntimeError("injected start-time crash")

    injector = Injector()
    with pytest.raises(SpmdError) as exc:
        run_spmd(4, lambda comm: comm.barrier(), fault_injector=injector)
    assert exc.value.failed_ranks == [2]
    assert sorted(injector.seen) == [0, 1, 2, 3]


def test_failure_unblocks_peers_waiting_on_barrier():
    """Peers stuck in a barrier are aborted, not deadlocked."""

    def job(comm):
        if comm.rank == 0:
            raise RuntimeError("early exit")
        comm.barrier()  # would hang forever without abort

    with pytest.raises(SpmdError):
        run_spmd(3, job, timeout=30)


def test_failure_unblocks_peers_waiting_on_recv():
    def job(comm):
        if comm.rank == 0:
            raise RuntimeError("no send today")
        comm.recv(source=0)

    with pytest.raises(SpmdError):
        run_spmd(2, job, timeout=30)


def test_recv_timeout_is_deadlock_error():
    def job(comm):
        if comm.rank == 1:
            comm.recv(source=0)  # rank 0 never sends

    with pytest.raises(SpmdError) as exc:
        run_spmd(2, job, timeout=0.3)
    assert isinstance(exc.value.cause, DeadlockError)


def test_local_size_plumbs_through():
    out = run_spmd(6, lambda comm: (comm.local_rank, comm.node_index), local_size=3)
    assert out == [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
