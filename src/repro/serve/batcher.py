"""Dynamic batching: assemble inference batches under a latency deadline.

The serving front-end's core data structure. Arrivals enter a bounded
admission queue (policy per :data:`repro.serve.ADMISSION_POLICIES`);
the batcher drains them into batches that flush when either

- the assembled batch reaches ``max_batch`` rows, or
- the *oldest* queued request has spent its assembly budget
  (``deadline_ms * ASSEMBLE_FRACTION``) waiting — whichever comes
  first.

This is the classic server-side batching trade: a bigger batch
amortizes fixed per-batch cost (better throughput), but every queued
row pays the wait (worse latency), so the deadline bounds how much
throughput is bought with any single request's time. A request larger
than ``max_batch`` on its own flushes alone — splitting it would not
reduce its latency, and holding it can never fill a batch.

The clock is injectable so tests can step time deterministically
through deadline-expiry paths.
"""

from __future__ import annotations

import collections
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional

import numpy as np

from repro.serve.options import ServeOptions

__all__ = ["Request", "Batch", "DynamicBatcher"]


@dataclass
class Request:
    """One admitted inference request: rows of features plus timing."""

    req_id: int
    features: np.ndarray
    arrival_s: float
    deadline_s: float

    @property
    def rows(self) -> int:
        return int(len(self.features))


@dataclass
class Batch:
    """Requests assembled for one replica dispatch."""

    requests: List[Request]
    features: np.ndarray
    assembled_s: float

    @property
    def rows(self) -> int:
        return int(len(self.features))

    def slices(self) -> Iterator[tuple[Request, slice]]:
        """Yield ``(request, row_slice)`` to scatter results back."""
        start = 0
        for req in self.requests:
            yield req, slice(start, start + req.rows)
            start += req.rows


class DynamicBatcher:
    """Bounded admission queue + deadline-aware batch assembly.

    ``offer`` is called by the load generator's thread; ``poll`` by the
    dispatcher. All state is guarded by one condition variable.

    A dispatcher that sleeps somewhere else (the serving front-end
    sleeps on its rank's message arrivals) passes ``wake``: it is
    called, outside the lock, whenever the moment of the next forced
    flush may have moved *earlier* than :meth:`seconds_until_flush`
    last said — the queue went non-empty, a batch filled, or the
    batcher closed.
    """

    def __init__(
        self,
        options: ServeOptions,
        clock: Callable[[], float] = time.monotonic,
        wake: Optional[Callable[[], None]] = None,
    ):
        self.options = options
        self.clock = clock
        self._wake = wake
        self._cond = threading.Condition()
        self._queue: collections.deque[Request] = collections.deque()
        #: rows queued, so "is a batch full" is one comparison
        self._rows = 0
        self._closed = False
        #: admission outcome counters (read under the lock or after close)
        self.accepted = 0
        self.rejected = 0

    def __len__(self) -> int:
        with self._cond:
            return len(self._queue)

    def close(self) -> None:
        """No further arrivals; wakes a blocked submitter and the dispatcher."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if self._wake is not None:
            self._wake()

    # -- admission ----------------------------------------------------------
    def offer(self, request: Request, timeout: Optional[float] = None) -> str:
        """Admit one request under the configured policy.

        Returns "accepted" or "rejected". Under "block" a full queue
        makes this call wait for space — backpressure all the way to the
        submitter; under "reject" it refuses the request at once.
        """
        with self._cond:
            if self._closed:
                self.rejected += 1
                return "rejected"
            if len(self._queue) >= self.options.queue_depth:
                if self.options.admission == "reject":
                    self.rejected += 1
                    return "rejected"
                # block: wait for the dispatcher to make room
                deadline = None if timeout is None else self.clock() + timeout
                while len(self._queue) >= self.options.queue_depth:
                    if self._closed:
                        self.rejected += 1
                        return "rejected"
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - self.clock()
                        if remaining <= 0:
                            self.rejected += 1
                            return "rejected"
                    self._cond.wait(remaining)
            before = self._rows
            self._queue.append(request)
            self._rows = before + request.rows
            self.accepted += 1
            moved_earlier = before == 0 or before < self.options.max_batch <= self._rows
        if moved_earlier and self._wake is not None:
            self._wake()
        return "accepted"

    # -- assembly -----------------------------------------------------------
    def _flush_in(self) -> Optional[float]:
        """Lock held: seconds until a flush is forced; None on an empty queue.

        0.0 means flush-worthy right now: the queued rows fill a batch,
        the batcher is closed (drain), or the oldest request has spent
        its assembly budget. Otherwise what is left of that budget.
        """
        if not self._queue:
            return None
        if self._closed or self._rows >= self.options.max_batch:
            return 0.0
        expiry = self._queue[0].arrival_s + self.options.assemble_budget_s
        return max(0.0, expiry - self.clock())

    def _assemble(self) -> Batch:
        """Lock held, queue non-empty: pop one batch's worth of requests."""
        taken: List[Request] = [self._queue.popleft()]
        rows = taken[0].rows
        while self._queue and rows + self._queue[0].rows <= self.options.max_batch:
            req = self._queue.popleft()
            taken.append(req)
            rows += req.rows
        self._rows -= rows
        self._cond.notify_all()  # space freed: wake blocked submitters
        features = (
            taken[0].features
            if len(taken) == 1
            else np.concatenate([r.features for r in taken], axis=0)
        )
        return Batch(requests=taken, features=features, assembled_s=self.clock())

    def seconds_until_flush(self) -> Optional[float]:
        """How long a dispatcher may sleep before :meth:`poll` has a batch.

        0.0 when a batch is flush-worthy now, the remainder of the
        oldest request's assembly budget for a partial batch, None when
        the queue is empty (only an arrival — a ``wake`` — changes that).
        """
        with self._cond:
            return self._flush_in()

    def poll(self) -> Optional[Batch]:
        """A batch if one is flush-worthy now, else None (non-blocking).

        Flush-worthy means: queued rows reach ``max_batch`` (a single
        oversized request qualifies alone), or the oldest request's
        assembly budget has expired (a partial batch flushes rather
        than blow the deadline), or the batcher is closed (drain).
        An empty queue returns None.
        """
        with self._cond:
            if self._flush_in() != 0.0:
                return None
            return self._assemble()
