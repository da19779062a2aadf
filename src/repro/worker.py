"""One lifecycle for background work: :class:`Worker`,
:func:`split_hidden`, the one rule for how much of it the caller saw,
and :func:`usable_cores`, whether a second core is there to run it.

Everything in ``repro`` that runs beside the critical path (the second
half of a conv split, a gradient bucket's allreduce, the next epoch's
load, a serving load generator) is a job on a
:class:`Worker`: one daemon thread, started by the first ``submit``,
running jobs in submission order. ``Job.wait`` re-raises a job's error;
``close`` drops the jobs not yet started and joins the running one; a
forked child's copy forgets the parent's thread and jobs and starts its
own thread, instead of waiting on one that does not exist there.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from typing import Callable, Iterable, Optional, Sequence, Tuple

__all__ = ["Job", "Worker", "split_hidden", "usable_cores"]


def usable_cores() -> int:
    """Cores this process may run on (``os.sched_getaffinity``), else the
    CPU count: what a second thread or process can actually use."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Job:
    """One submitted call: its result or error, and when it ran."""

    __slots__ = ("fn", "result", "error", "t0", "t1", "_done")

    def __init__(self, fn: Callable[[], object]):
        self.fn = fn
        self.result = None
        self.error: Optional[BaseException] = None
        #: ``perf_counter`` at the start and the end of the run
        self.t0: Optional[float] = None
        self.t1: Optional[float] = None
        # held until the job has run: a waiter blocks in its acquire
        self._done = threading.Lock()
        self._done.acquire()

    def run(self) -> None:
        """Run the call here, keeping its result or error for :meth:`wait`."""
        self.t0 = time.perf_counter()
        try:
            self.result = self.fn()
        except BaseException as exc:  # handed to the waiter
            self.error = exc
        self.t1 = time.perf_counter()
        self.fn = None  # done; and drop what the call holds
        self._done.release()

    def cancel(self) -> None:
        """Finish a job that will never run: :meth:`wait` raises."""
        self.error = RuntimeError("the worker closed before the job ran")
        self.fn = None
        self._done.release()

    def done(self) -> bool:
        return self.fn is None

    def wait(self, timeout: Optional[float] = None):
        """The job's result once it has run, or its error raised here;
        ``TimeoutError`` after ``timeout`` seconds (None: no limit)."""
        if not self._done.acquire(timeout=-1 if timeout is None else max(0.0, timeout)):
            raise TimeoutError(f"job not finished after {timeout}s")
        self._done.release()  # every later wait returns at once
        if self.error is not None:
            raise self.error
        return self.result


class _WorkerThread(threading.Thread):
    """A :class:`Worker`'s thread, told apart by its type."""


class Worker:
    """One daemon thread running submitted jobs in order; its owner
    calls ``submit`` and ``close`` from one thread at a time."""

    def __init__(self, name: str):
        self.name = name
        self._thread: Optional[_WorkerThread] = None
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._pid = os.getpid()

    def _serve(self) -> None:
        while (job := self._jobs.get()) is not None:
            job.run()

    def submit(self, fn: Callable[[], object]) -> Job:
        """Queue ``fn()`` behind every job submitted before it."""
        if self._pid != os.getpid():
            self._forget()
        if self._thread is None:
            self._thread = _WorkerThread(target=self._serve, name=self.name, daemon=True)
            self._thread.start()
        job = Job(fn)
        self._jobs.put(job)
        return job

    def beside(self, mine: Callable[[], None], theirs: Callable[[], None]) -> None:
        """``theirs()`` on the worker while ``mine()`` runs here.

        Waits for ``theirs`` even when ``mine`` raises; an error of
        ``theirs`` is raised then, chained to the caller's own.
        """
        job = self.submit(theirs)
        try:
            mine()
        finally:
            job.wait()

    def close(self) -> None:
        """Drop the jobs not yet started and join the running one."""
        if self._pid != os.getpid():
            self._forget()
        thread, self._thread = self._thread, None
        if thread is None:
            return
        while True:
            try:
                job = self._jobs.get_nowait()
            except queue.Empty:
                break
            job.cancel()
        self._jobs.put(None)
        thread.join()

    def _forget(self) -> None:
        """In a forked child: the parent's thread and queue are not ours."""
        self._thread = None
        self._jobs = queue.SimpleQueue()
        self._pid = os.getpid()


def split_hidden(
    jobs: Sequence[Job],
    needed: float,
    tracer=None,
    span: str = "",
    attrs: Iterable[dict] = (),
) -> Tuple[float, float]:
    """``(hidden, exposed)`` seconds of the union of the jobs' run
    intervals, cut at ``needed``, when the consumer needed them.

    The union, not the sum: jobs running at once (channels) are waited
    for at once, so a sum would overstate the work and its exposed tail.
    With a ``tracer``, each job lands a ``<span>_hidden`` span (its time
    before ``needed``) and a ``<span>_wait`` span (after), in category
    ``span``, with its entry of ``attrs``.
    """
    merged: list = []
    for t0, t1 in sorted((job.t0, job.t1) for job in jobs):
        if merged and t0 <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], t1)
        else:
            merged.append([t0, t1])
    if tracer is not None:
        for job, extra in zip(jobs, attrs):
            tracer.record_span(
                f"{span}_hidden", job.t0, _before(job.t0, job.t1, needed),
                category=span, absolute=True, **extra,
            )
            tracer.record_span(
                f"{span}_wait", max(job.t0, needed), _after(job.t0, job.t1, needed),
                category=span, absolute=True, **extra,
            )
    return (
        sum(_before(t0, t1, needed) for t0, t1 in merged),
        sum(_after(t0, t1, needed) for t0, t1 in merged),
    )


def _before(t0: float, t1: float, needed: float) -> float:
    return max(0.0, min(t1, needed) - t0)


def _after(t0: float, t1: float, needed: float) -> float:
    return max(0.0, t1 - max(t0, needed))
