"""Two cores, one task list: how NT3's conv stack shares a call between
the calling thread and a helper, and the one rule for where a GEMM's
rows may be cut without changing a bit.

A training process runs one compute thread and pins BLAS to one thread,
so on a two-core node one core idles through the step. A ``Conv1D`` or
``MaxPooling1D`` pass is a list of independent tasks (Shi, Wang & Chu
model a step the same way): the row tiles of a forward or dx GEMM, the
sample ranges of an elementwise or gather pass, a dW GEMM and a bias
sum. :func:`share` runs such a list on two threads, each claiming the
next task until none is left, so the one that finishes its task first
takes the next, and neither waits on a fixed half of the other's.

Bits. Splitting elementwise work, copies and gathers changes nothing.
Splitting a GEMM's rows changes nothing *only* where OpenBLAS runs each
piece through the kernels it runs the whole through; :func:`gemm_edges`
is that rule, and ``Sequential._tile_edges`` calls it too. Measured on
numpy 2.4 / OpenBLAS 0.3.31 (Haswell kernels), f32 and f64:

- a cut off a multiple of 16 rows moves rows into or out of the edge
  kernel (M % unroll);
- a piece at or below ``M·N·K = 100³`` goes through the small-matrix
  kernel, so it may differ from a whole above the limit (and vice versa);
- a one-row piece is a vector-matrix product to numpy (gemv), which sums
  in another order;
- ``N = 1`` makes the whole GEMM a matrix-vector product, which OpenBLAS
  threads from ``M·K = 460,800`` (partitioning by thread count) and, in
  f32, blocks differently past ``2¹⁴`` rows; below both it cuts like a
  matrix product.

If numpy reports another BLAS, or (before 1.26) cannot say which, no
GEMM is cut. A task list does not depend on whether it is shared, so a
call's bytes are the same on one thread or two.

When it is shared. Only on the process's main thread: SPMD rank threads
and serving replicas already own a core each. Only when the process may
use two cores (``os.sched_getaffinity``), when the list has two tasks or
more, when the call touches at least :data:`MIN_WORK` scalars (below
that the handoff costs more than it saves), and never from inside a
shared call (the helper itself, or a task on the caller). Otherwise the
same tasks run here, in order.

The helper is one :class:`~repro.worker.Worker`, started by the first
shared call, so it keeps the Worker's contract: the caller waits for the
helper even when a task of its own raises, then re-raises the helper's
error, so no buffer is written after the layer returns; a forked child
starts its own thread. A task that raises stops its thread from
claiming more. Every buffer a task writes is obtained by the caller
before the list starts; :func:`lanes` says how many threads' worth.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Optional, Sequence

import numpy as np

from repro.worker import Worker, usable_cores

__all__ = ["gemm_edges", "lanes", "samples", "share", "MIN_WORK"]

#: a GEMM's rows are cut only at multiples of this
GEMM_ROWS = 16
#: OpenBLAS's small-matrix limit on M·N·K
SMALL_GEMM = 100**3
#: a matrix-vector product (N = 1) is cut only below both: OpenBLAS
#: threads it from M·K = 460,800 and sgemv changes blocking past 2¹⁴ rows
GEMV_THREADED = 460_800
GEMV_ROWS = 1 << 14
#: scalars a call must touch before it is shared (tests patch it to 0)
MIN_WORK = 1 << 17

#: a task of a list: called with its lane, 0 on the calling thread and 1
#: on the helper (what it indexes per-thread buffers by)
Task = Callable[[int], None]


def _reports_openblas() -> bool:
    try:
        config = np.show_config(mode="dicts")  # numpy >= 1.26
    except TypeError:
        return False  # an older numpy does not say: cut nothing
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower()


_OPENBLAS = _reports_openblas()
_CORES = usable_cores()


def gemm_edges(edges: Sequence[int], n: int, k: int) -> list[int]:
    """``edges`` less every cut the rule forbids.

    ``edges`` are row boundaries ``0 < … < M`` at which a caller would
    cut an ``(M, k) @ (k, n)`` GEMM into pieces. A cut survives if it is
    at a multiple of :data:`GEMM_ROWS` and leaves the piece before it at
    least two rows long and on the whole GEMM's side of
    :data:`SMALL_GEMM`; a dropped cut joins its piece to the next one. A
    last piece that fails the test joins the one before it.
    """
    m = edges[-1]
    if not _OPENBLAS or (n == 1 and (m > GEMV_ROWS or m * k >= GEMV_THREADED)):
        return [0, m]
    big = m * n * k > SMALL_GEMM

    def fits(rows: int) -> bool:
        return rows >= 2 and (rows * n * k > SMALL_GEMM) == big

    kept = [0]
    for edge in edges[1:-1]:
        if edge % GEMM_ROWS == 0 and fits(edge - kept[-1]):
            kept.append(edge)
    if len(kept) > 1 and not fits(m - kept[-1]):
        kept.pop()
    return [*kept, m]


class _Helper(Worker):
    """The second core: a :class:`~repro.worker.Worker` that knows
    whether a shared call is running."""

    #: a shared call is running: calls made inside it run here
    busy = False


#: started by the first shared call; only the main thread touches it
_helper: Optional[_Helper] = None


def _shared_helper(count: int, work: int) -> Optional[_Helper]:
    """The helper, if a list of ``count`` tasks touching ``work`` scalars
    is shared here."""
    global _helper
    if (
        count < 2
        or work < MIN_WORK
        or _CORES < 2
        or threading.current_thread() is not threading.main_thread()
    ):
        return None
    if _helper is None:
        _helper = _Helper("repro.nn.halves")
    return None if _helper.busy else _helper


def lanes(count: int, work: int) -> int:
    """Threads a :func:`share` of ``count`` tasks touching ``work``
    scalars runs on, here and now: 2, or 1 when it runs in one pass (so
    a caller obtains one per-thread buffer per lane before it starts)."""
    return 1 if _shared_helper(count, work) is None else 2


def share(tasks: Sequence[Task], work: int) -> None:
    """Run every task once: this thread (lane 0) and the helper (lane 1)
    each claim the next task of ``tasks`` until none is left — or this
    thread runs them all, in order, when the call is not shared.

    Returns once the helper has stopped. A task that raises stops its
    own thread from claiming more; the caller's error is raised, or the
    helper's, chained to the caller's own when both raised.
    """
    helper = _shared_helper(len(tasks), work)
    if helper is None:
        for task in tasks:
            task(0)
        return
    pending = deque(tasks)  # popleft is thread-safe: one claim per task

    def drain(lane: int) -> None:
        while True:
            try:
                task = pending.popleft()
            except IndexError:  # none left
                return
            task(lane)

    helper.busy = True
    try:
        helper.beside(lambda: drain(0), lambda: drain(1))
    finally:
        helper.busy = False


def samples(part: Callable[[int, int], None], n: int) -> list[Task]:
    """Tasks running ``part(lo, hi)`` over two halves of samples
    ``[0, n)`` (one task when ``n < 2``)."""
    edges = sorted({0, n // 2, n})
    return [lambda lane, lo=lo, hi=hi: part(lo, hi) for lo, hi in zip(edges, edges[1:])]
