"""The Worker contract and the hidden/exposed split.

A :class:`repro.worker.Worker` runs submitted jobs one at a time, in
order, on one daemon thread; ``Job.wait`` re-raises a job's error;
``beside`` waits for the worker's part even when the caller's raises;
``close`` drops what has not started and joins what has; a forked child
runs its copy on a thread of its own. :func:`repro.worker.split_hidden`
cuts the union of job intervals at the moment the consumer needed them.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading

import pytest

from repro.telemetry import Tracer
from repro.worker import Job, Worker, split_hidden

WAIT_S = 60


@pytest.fixture
def worker():
    w = Worker("test-worker")
    yield w
    w.close()


def test_jobs_run_in_submission_order(worker):
    seen = []
    jobs = [worker.submit(lambda i=i: seen.append(i) or i) for i in range(50)]
    assert [job.wait(WAIT_S) for job in jobs] == list(range(50))
    assert seen == list(range(50))
    assert all(a.t1 <= b.t0 for a, b in zip(jobs, jobs[1:]))


def test_a_jobs_error_reaches_wait_and_the_worker_survives(worker):
    def boom():
        raise KeyError("in the job")

    job = worker.submit(boom)
    for _ in range(2):  # every wait sees it
        with pytest.raises(KeyError, match="in the job"):
            job.wait(WAIT_S)
    assert job.done()
    assert worker.submit(lambda: 7).wait(WAIT_S) == 7


def test_wait_gives_up_after_its_timeout(worker):
    gate = threading.Event()
    job = worker.submit(gate.wait)
    with pytest.raises(TimeoutError):
        job.wait(0.05)
    assert not job.done()
    gate.set()
    assert job.wait(WAIT_S) is True


def test_the_caller_waits_even_when_its_own_part_raises(worker):
    started, finished = threading.Event(), threading.Event()

    def mine():
        started.set()
        raise ValueError("caller part")

    def theirs():
        if started.wait(WAIT_S):
            finished.set()

    with pytest.raises(ValueError, match="caller part"):
        worker.beside(mine, theirs)
    assert finished.is_set()

    def theirs_raises():
        raise KeyError("worker part")

    with pytest.raises(KeyError) as info:
        worker.beside(mine, theirs_raises)
    assert isinstance(info.value.__context__, ValueError)


def test_close_joins_the_running_job_and_drops_the_queued_ones():
    worker = Worker("test-close")
    started, gate, ran = threading.Event(), threading.Event(), []
    running = worker.submit(lambda: started.set() or gate.wait(WAIT_S))
    queued = [worker.submit(lambda i=i: ran.append(i)) for i in range(3)]
    assert started.wait(WAIT_S)
    closer = threading.Thread(target=worker.close)
    closer.start()
    closer.join(0.1)
    assert closer.is_alive()  # joining the running job
    gate.set()
    closer.join(WAIT_S)
    assert not closer.is_alive()
    assert running.wait(0) is True
    assert ran == []
    for job in queued:
        with pytest.raises(RuntimeError, match="closed before the job ran"):
            job.wait(0)
    assert "test-close" not in {t.name for t in threading.enumerate()}
    # a closed worker starts a new thread for its next job
    try:
        assert worker.submit(lambda: 3).wait(WAIT_S) == 3
    finally:
        worker.close()


def test_many_workers_under_a_short_switch_interval_lose_no_job():
    """Four workers on two cores, the interpreter switching threads
    every microsecond: every job runs once, in its worker's order, and
    every wait sees its own result."""
    workers = [Worker(f"test-stress-{i}") for i in range(4)]
    runs = [[] for _ in workers]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        jobs = [
            (i, n, w.submit(lambda i=i, n=n: runs[i].append(n) or (i, n)))
            for n in range(200)
            for i, w in enumerate(workers)
        ]
        assert all(job.wait(WAIT_S) == (i, n) for i, n, job in jobs)
    finally:
        sys.setswitchinterval(interval)
        for w in workers:
            w.close()
    assert runs == [list(range(200))] * 4


def test_a_job_run_inline_records_its_interval():
    job = Job(lambda: 5)
    job.run()
    assert job.wait(0) == 5 and job.t0 <= job.t1


def _submit_in_child(worker, conn):
    conn.send(worker.submit(lambda: os.getpid()).wait(WAIT_S))
    worker.close()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_runs_to_completion(worker):
    """The child's copy of a running worker has no thread behind it: the
    child starts its own instead of waiting on the parent's for ever."""
    assert worker.submit(lambda: 1).wait(WAIT_S) == 1  # the parent's thread runs
    ctx = multiprocessing.get_context("fork")
    parent, child_end = ctx.Pipe()
    child = ctx.Process(target=_submit_in_child, args=(worker, child_end))
    child.start()
    child.join(timeout=WAIT_S)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child hung on its parent's worker")
    assert child.exitcode == 0
    assert parent.poll(0) and parent.recv() == child.pid
    parent.close()
    child_end.close()
    assert worker.submit(lambda: 2).wait(WAIT_S) == 2  # the parent's is intact


def _ran(t0, t1):
    job = Job(None)
    job.t0, job.t1 = t0, t1
    return job


def test_split_hidden_cuts_the_union_at_the_need():
    # [0, 2) and [1, 3) overlap into [0, 3); [5, 6) stands alone
    jobs = [_ran(0.0, 2.0), _ran(1.0, 3.0), _ran(5.0, 6.0)]
    assert split_hidden(jobs, 2.5) == (2.5, 1.5)
    assert split_hidden(jobs, 0.0) == (0.0, 4.0)  # needed before any ran
    assert split_hidden(jobs, 10.0) == (4.0, 0.0)  # all ran before the need
    assert split_hidden([], 1.0) == (0.0, 0.0)


def test_split_hidden_records_one_span_pair_per_job():
    tracer = Tracer(run_id="split")
    jobs = [_ran(0.0, 2.0), _ran(1.0, 3.0)]
    split_hidden(jobs, 1.5, tracer, "load", [{"part": 0}, {"part": 1}])
    spans = {(s.name, s.attrs["part"]): s for s in tracer.spans}
    assert sorted(spans) == [("load_hidden", 0), ("load_hidden", 1),
                             ("load_wait", 0), ("load_wait", 1)]
    assert spans["load_hidden", 0].duration_s == pytest.approx(1.5)
    assert spans["load_wait", 0].duration_s == pytest.approx(0.5)
    assert spans["load_hidden", 1].duration_s == pytest.approx(0.5)
    assert spans["load_wait", 1].duration_s == pytest.approx(1.5)
    assert {s.category for s in tracer.spans} == {"load"}
