"""Two halves on two cores: the sample split of NT3's conv stack, and the
one rule for where a GEMM's rows may be cut without changing a bit.

A training process runs one compute thread and pins BLAS to one thread,
so on a two-core node one core idles through the step. Everything a
``Conv1D`` or ``MaxPooling1D`` call does is independent per sample except
a layer's dW GEMM, which reduces over the batch. So :func:`halves` runs
the first samples of a batch on the calling thread and the rest on one
process-wide helper thread, and :func:`beside` runs a dW GEMM, whole, on
the helper while the caller computes ``dx``.

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
GEMM is cut.

When it runs. Only on the process's main thread: SPMD rank threads and
serving replicas already own a core each. Only when the process may use
two cores (``os.sched_getaffinity``), when the call touches at least
:data:`MIN_WORK` scalars (below that the handoff costs more than it
saves), and never from inside a split (the helper itself, or the
caller's half). Otherwise the same code runs once over ``(0, n)``.

The helper is one :class:`~repro.worker.Worker`, started by the first
split, so it keeps the Worker's contract: the caller waits for the
helper's half even when its own half raises, then re-raises the
helper's error, so no buffer is written after the layer returns; a
forked child starts its own thread. Every buffer the halves write is
obtained by the caller before they start.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Optional, Sequence

import numpy as np

from repro.worker import Worker, usable_cores

__all__ = ["gemm_edges", "halves", "split_at", "run_split", "beside", "MIN_WORK"]

#: a GEMM's rows are cut only at multiples of this
GEMM_ROWS = 16
#: OpenBLAS's small-matrix limit on M·N·K
SMALL_GEMM = 100**3
#: a matrix-vector product (N = 1) is cut only below both: OpenBLAS
#: threads it from M·K = 460,800 and sgemv changes blocking past 2¹⁴ rows
GEMV_THREADED = 460_800
GEMV_ROWS = 1 << 14
#: scalars a call must touch before it is split (tests patch it to 0)
MIN_WORK = 1 << 17


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
    whether a split is running."""

    #: a split is running: calls made inside it run in one pass
    busy = False

    def run(self, mine: Callable[[], None], theirs: Callable[[], None]) -> None:
        self.busy = True
        try:
            self.beside(mine, theirs)
        finally:
            self.busy = False


#: started by the first split; only the main thread touches it
_helper: Optional[_Helper] = None


def _split_helper(work: int) -> Optional[_Helper]:
    """The helper, if a call touching ``work`` scalars is split here."""
    global _helper
    if (
        work < MIN_WORK
        or _CORES < 2
        or threading.current_thread() is not threading.main_thread()
    ):
        return None
    if _helper is None:
        _helper = _Helper("repro.nn.halves")
    return None if _helper.busy else _helper


def beside(mine: Callable[[], None], theirs: Callable[[], None], work: int) -> None:
    """``theirs()`` on the helper while ``mine()`` runs here — or both
    here, in turn, when the call is not split."""
    helper = _split_helper(work)
    if helper is None:
        mine()
        theirs()
    else:
        helper.run(mine, theirs)


def split_at(n: int, work: int, gemm: Optional[tuple] = None) -> Optional[int]:
    """The sample at which :func:`halves` splits ``[0, n)``, or ``None``
    when the call runs in one pass (it then starts the helper if need be).

    ``gemm = (rows per sample, N, K)`` names a GEMM whose rows the parts
    cut with the samples; the split is then the sample nearest ``n / 2``
    at which :func:`gemm_edges` allows the cut, and with none there is no
    split. A caller that sizes per-half buffers asks first and hands the
    answer to :func:`run_split`.
    """
    helper = _split_helper(work) if n >= 2 else None
    if helper is None:
        return None
    if gemm is None:
        return n // 2
    per_sample, cols, depth = gemm
    step = GEMM_ROWS // math.gcd(per_sample, GEMM_ROWS)
    low = n // 2 // step * step
    rows = n * per_sample
    return next(
        (h for h in sorted((low, low + step), key=lambda h: abs(2 * h - n))
         if 0 < h < n and len(gemm_edges([0, h * per_sample, rows], cols, depth)) == 3),
        None,
    )


def run_split(part: Callable[[int, int], None], n: int, at: Optional[int]) -> None:
    """``part(0, at)`` here and ``part(at, n)`` on the helper, or
    ``part(0, n)`` once when ``at`` is ``None`` (``at`` from
    :func:`split_at`)."""
    if at is None:
        part(0, n)
    else:
        _helper.run(lambda: part(0, at), lambda: part(at, n))


def halves(
    part: Callable[[int, int], None], n: int, work: int, gemm: Optional[tuple] = None
) -> None:
    """``part(lo, hi)`` over samples ``[0, n)``: ``part(0, h)`` here and
    ``part(h, n)`` on the helper, or ``part(0, n)`` once (``h`` and the
    arguments as in :func:`split_at`)."""
    run_split(part, n, split_at(n, work, gemm))
