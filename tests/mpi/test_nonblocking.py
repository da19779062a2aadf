"""Nonblocking point-to-point: isend/irecv + Request semantics."""

import time

import pytest

from repro.mpi import Request, run_spmd
from repro.mpi.communicator import DeadlockError


def test_isend_completes_immediately():
    def job(comm):
        if comm.rank == 0:
            req = comm.isend("hello", dest=1)
            assert req.test()
            assert req.wait() is None  # sends carry no payload
        else:
            return comm.recv(source=0)

    assert run_spmd(2, job)[1] == "hello"


def test_irecv_wait_returns_payload():
    def job(comm):
        if comm.rank == 0:
            time.sleep(0.05)
            comm.send({"k": 1}, dest=1)
            return None
        req = comm.irecv(source=0)
        return req.wait()

    assert run_spmd(2, job)[1] == {"k": 1}


def test_irecv_test_polls_without_blocking():
    def job(comm):
        if comm.rank == 0:
            req = comm.irecv(source=1, tag=7)
            early = req.test()  # nothing sent yet
            comm.send("go", dest=1)
            comm.recv(source=1)  # ack arrives on tag 0; the irecv uses tag 7
            value = req.wait(timeout=5)
            return early, value
        comm.recv(source=0)
        comm.isend("reply", dest=0, tag=7)
        comm.send("ack", dest=0)
        return None

    early, value = run_spmd(2, job)[0]
    assert early is False
    assert value == "reply"


def test_wait_is_idempotent():
    def job(comm):
        if comm.rank == 0:
            comm.send(42, dest=1)
            return None
        req = comm.irecv(source=0)
        return req.wait(), req.wait()

    assert run_spmd(2, job)[1] == (42, 42)


def test_waitall_orders_results():
    def job(comm):
        if comm.rank == 0:
            for i in range(3):
                comm.send(i * 10, dest=1, tag=i)
            return None
        reqs = [comm.irecv(source=0, tag=i) for i in range(3)]
        return Request.waitall(reqs)

    assert run_spmd(2, job)[1] == [0, 10, 20]


def test_wait_timeout_raises_deadlock():
    def job(comm):
        if comm.rank == 1:
            req = comm.irecv(source=0)  # never satisfied
            with pytest.raises(DeadlockError):
                req.wait(timeout=0.2)

    run_spmd(2, job)


def test_wait_without_a_timeout_inherits_the_runs_timeout():
    # was: fell back to the module's DEFAULT_TIMEOUT and hung 120 s
    def job(comm):
        if comm.rank == 1:
            with pytest.raises(DeadlockError, match="timed out after 0.2s"):
                comm.irecv(source=0).wait()

    run_spmd(2, job, timeout=0.2)


def test_waitall_without_a_timeout_inherits_the_runs_timeout():
    def job(comm):
        if comm.rank == 1:
            reqs = [comm.irecv(source=0, tag=t) for t in (1, 2)]
            with pytest.raises(DeadlockError, match="tag 1 timed out after 0.2s"):
                Request.waitall(reqs)

    run_spmd(2, job, timeout=0.2)
