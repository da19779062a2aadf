"""Resilient execution: retry and bit-exact resume.

:func:`run_resilient_benchmark` is a retry wrapper around the one run
driver, :func:`repro.candle.pipeline.run_rank`: every attempt runs the
same per-rank phases as :func:`repro.core.parallel.run_parallel_benchmark`
(load → train+checkpoint → evaluate) under a supervisor loop:

1. a failed attempt (any rank crash, injected or real) is retried with
   capped exponential backoff;
2. each retry resumes from the newest *checksum-valid* checkpoint via
   :class:`~repro.resilience.CheckpointManager` — the restored weights,
   optimizer state and RNG streams (shuffle order included) make the
   recovered run bit-identical to an uninterrupted one.

The loop gives up only when the retry budget is exhausted, re-raising
the final :class:`~repro.mpi.runtime.SpmdError` with every rank's
failure attached.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.candle.base import CandleBenchmark, LoadedData
from repro.candle.pipeline import run_rank
from repro.core.scaling import ScalingPlan
from repro.mpi import run_spmd
from repro.mpi.runtime import SpmdError
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.telemetry import active_tracer

__all__ = [
    "AttemptRecord",
    "ResilientRunResult",
    "RetryPolicy",
    "run_resilient_benchmark",
]


#: the backoff doubles after each failed attempt, up to this cap
MAX_BACKOFF_S = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for failed attempts: the delay after
    failed attempt ``a`` is ``base_delay_s * 2**a``, at most
    :data:`MAX_BACKOFF_S`."""

    max_retries: int = 3
    base_delay_s: float = 0.05

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {self.max_retries}")
        if self.base_delay_s < 0:
            raise ValueError("base_delay_s must be non-negative")

    def delay_s(self, attempt: int) -> float:
        """Backoff before retrying after failed attempt ``attempt``."""
        return min(self.base_delay_s * 2.0**attempt, MAX_BACKOFF_S)


@dataclass
class AttemptRecord:
    """One attempt of the supervised run (every attempt runs the plan's
    world, ``ResilientRunResult.plan.nworkers``)."""

    attempt: int
    start_epoch: int
    status: str  # 'completed' | 'failed'
    failed_ranks: list[int] = field(default_factory=list)
    error: Optional[str] = None
    backoff_s: float = 0.0
    wall_s: float = 0.0


@dataclass
class ResilientRunResult:
    """What the supervised run produced, attempt by attempt."""

    benchmark: str
    plan: ScalingPlan
    attempts: list[AttemptRecord]
    history: dict[str, list[float]]
    eval_metrics: dict[str, float]
    checkpoint_dir: str

    @property
    def nattempts(self) -> int:
        return len(self.attempts)

    @property
    def recovered(self) -> bool:
        """True when the run failed at least once and still completed."""
        return self.nattempts > 1 and self.attempts[-1].status == "completed"

    @property
    def final_loss(self) -> float:
        return self.eval_metrics["loss"]


def run_resilient_benchmark(
    benchmark: CandleBenchmark,
    plan: ScalingPlan,
    checkpoint_dir,
    data: Optional[LoadedData] = None,
    seed: int = 0,
    every_n_epochs: int = 1,
    keep_last: int = 3,
    fault_plan: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
    local_size: int = 1,
    sleep=time.sleep,
) -> ResilientRunResult:
    """Run one benchmark to completion through crashes and retries.

    ``fault_plan`` optionally injects a deterministic fault schedule
    (the rehearsal mode); real failures take exactly the same path.
    ``sleep`` is injectable so tests can assert the backoff sequence
    without waiting it out. Each attempt's ``start_epoch`` is the epoch
    after the checkpoint rank 0 will restore
    (:meth:`~repro.resilience.CheckpointManager.latest_restorable`),
    read once before the attempt starts; every rank resumes there. The
    ranks record into the process-wide active tracer, if any.
    """
    if data is None:
        data = benchmark.synth_arrays(np.random.default_rng(seed))
    retry = retry if retry is not None else RetryPolicy()
    injector = FaultInjector(fault_plan) if fault_plan is not None else None
    checkpoint_dir = str(checkpoint_dir)
    manager = CheckpointManager(checkpoint_dir, keep_last=keep_last)
    tracer = active_tracer()

    attempts: list[AttemptRecord] = []
    max_attempts = retry.max_retries + 1
    for attempt in range(max_attempts):
        latest = manager.latest_restorable()
        record = AttemptRecord(
            attempt=attempt,
            start_epoch=latest.epoch + 1 if latest is not None else 0,
            status="failed",
        )
        attempts.append(record)
        t0 = time.perf_counter()
        try:
            reports = run_spmd(
                plan.nworkers,
                lambda comm: run_rank(
                    comm, benchmark, tracer=tracer,
                    epochs=plan.epochs_per_worker,
                    batch_size=plan.batch_size,
                    learning_rate=plan.learning_rate,
                    model_seed=seed + 1000 * (comm.rank + 1), data=data,
                    checkpoint=manager, checkpoint_every=every_n_epochs,
                    initial_epoch=record.start_epoch,
                )[0],
                local_size=local_size,
                fault_injector=injector,
            )
        except SpmdError as exc:
            record.failed_ranks = exc.failed_ranks
            record.error = str(exc)
            record.wall_s = time.perf_counter() - t0
            if attempt + 1 >= max_attempts:
                raise
            delay = retry.delay_s(attempt)
            record.backoff_s = delay
            if delay > 0:
                sleep(delay)
            if injector is not None:
                injector.next_attempt()
            continue
        record.status = "completed"
        record.wall_s = time.perf_counter() - t0
        return ResilientRunResult(
            benchmark=benchmark.spec.name,
            plan=plan,
            attempts=attempts,
            history=reports[0].history,
            eval_metrics=reports[0].eval_metrics,
            checkpoint_dir=checkpoint_dir,
        )
    raise RuntimeError("unreachable: retry loop must return or raise")
