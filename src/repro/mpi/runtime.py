"""SPMD launcher: run one function on N ranks (threads) and collect results.

``run_spmd(nprocs, fn, ...)`` is the moral equivalent of
``mpirun -np N python script.py``: ``fn(comm, *args)`` executes once per
rank with that rank's :class:`Communicator`. Exceptions on any rank
abort the whole run (barrier broken, mailboxes poisoned) and re-raise
on the caller with the failing rank attached.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional, Sequence

from repro.mpi.communicator import (
    DEFAULT_TIMEOUT,
    AbortError,
    Communicator,
    _Context,
)

__all__ = ["run_spmd", "SpmdError"]


class SpmdError(RuntimeError):
    """One or more ranks raised; carries *every* rank's exception.

    ``failures`` holds the complete rank-ordered ``(rank, exception)``
    list — when several ranks fail in the same run (a real pattern for
    injected faults and collective breakdowns), no exception is
    dropped. ``rank``/``cause`` remain the lowest-ranked failure for
    compatibility with single-failure callers.
    """

    def __init__(
        self,
        rank: int,
        cause: BaseException,
        failures: Optional[Sequence[tuple[int, BaseException]]] = None,
    ):
        self.failures: list[tuple[int, BaseException]] = (
            sorted(failures, key=lambda f: f[0]) if failures else [(rank, cause)]
        )
        self.rank, self.cause = self.failures[0]
        detail = "; ".join(f"rank {r}: {exc!r}" for r, exc in self.failures)
        count = len(self.failures)
        prefix = f"{count} ranks failed" if count > 1 else f"rank {self.rank} failed"
        super().__init__(f"{prefix}: {detail}")

    @property
    def failed_ranks(self) -> list[int]:
        return [r for r, _ in self.failures]


def run_spmd(
    nprocs: int,
    fn: Callable[..., Any],
    *args: Any,
    local_size: int = 1,
    timeout: float = DEFAULT_TIMEOUT,
    rank_args: Optional[Sequence[tuple]] = None,
    fault_injector: Optional[Any] = None,
) -> list:
    """Run ``fn(comm, *args)`` on ``nprocs`` ranks; return per-rank results.

    ``local_size`` sets ranks-per-node (``comm.local_rank`` follows the
    paper's one-GPU-per-process pinning). ``rank_args`` optionally gives
    each rank its own extra argument tuple instead of the shared
    ``args``. Results come back rank-ordered.

    ``fault_injector`` is the per-rank fault hook (any object with an
    ``on_rank_start(rank)`` method — canonically a
    :class:`repro.resilience.FaultInjector`, duck-typed here to keep
    the MPI layer dependency-free). It runs on each rank *before*
    ``fn`` and may sleep (I/O stall, straggler) or raise (start-up
    crash); a raise takes the normal failure path: the run aborts and
    the exception surfaces in :class:`SpmdError`. The injector is also
    stashed on each rank's communicator (``comm.fault_injector``), where
    the rank's training loop finds it to fire its epoch and step faults
    (:func:`repro.candle.pipeline.run_rank`).
    """
    if nprocs <= 0:
        raise ValueError(f"nprocs must be positive, got {nprocs}")
    if rank_args is not None and len(rank_args) != nprocs:
        raise ValueError(
            f"rank_args has {len(rank_args)} entries for {nprocs} ranks"
        )

    context = _Context(nprocs, timeout)
    results: list = [None] * nprocs
    failures: list[tuple[int, BaseException]] = []
    lock = threading.Lock()

    def worker(rank: int) -> None:
        comm = Communicator(context, rank, local_size=local_size)
        comm.fault_injector = fault_injector
        extra = rank_args[rank] if rank_args is not None else args
        try:
            if fault_injector is not None:
                fault_injector.on_rank_start(rank)
            results[rank] = fn(comm, *extra)
        except AbortError:
            pass  # victim of another rank's failure
        except BaseException as exc:  # noqa: BLE001 — must propagate anything
            with lock:
                failures.append((rank, exc))
            context.abort(exc)

    if nprocs == 1:
        worker(0)
    else:
        threads = [
            threading.Thread(target=worker, args=(r,), name=f"spmd-rank-{r}")
            for r in range(nprocs)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    if failures:
        failures.sort(key=lambda f: f[0])
        rank, cause = failures[0]
        raise SpmdError(rank, cause, failures=failures) from cause
    return results
