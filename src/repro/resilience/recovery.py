"""Resilient execution: retry, resume, and elastic world shrinking.

:func:`run_resilient_benchmark` is a retry wrapper around the one run
driver, :func:`repro.candle.pipeline.run_rank`: every attempt runs the
same per-rank phases as :func:`repro.core.parallel.run_parallel_benchmark`
(load → train+checkpoint → evaluate) under a supervisor loop:

1. a failed attempt (any rank crash, injected or real) is retried with
   capped exponential backoff;
2. each retry resumes from the newest *checksum-valid* checkpoint via
   :class:`~repro.resilience.CheckpointManager` — the restored weights,
   optimizer state and RNG streams (shuffle order included) make the
   recovered run bit-identical to an uninterrupted one;
3. ranks declared permanently dead shrink the world: the survivors are
   renumbered, and the scaling plan is re-derived from the paper's own
   rules (linear learning-rate scaling, balanced epoch partitioning)
   for the smaller world.

The loop gives up only when the retry budget is exhausted, re-raising
the final :class:`~repro.mpi.runtime.SpmdError` with every rank's
failure attached.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.candle.base import CandleBenchmark, LoadedData
from repro.candle.pipeline import run_rank
from repro.core.epochs import comp_epochs_balanced
from repro.core.lr_scaling import scale_learning_rate
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
    "replan_for_world",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for failed attempts.

    ``jitter`` spreads retries by up to that fraction of the capped
    delay — but only from an *injected* RNG: the policy never touches
    global ``random``/``np.random`` state, so a retried run backs off
    bit-reproducibly (:func:`run_resilient_benchmark` derives its
    generator from the run seed).
    """

    max_retries: int = 3
    base_delay_s: float = 0.05
    factor: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {self.max_retries}")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {self.jitter}")

    def delay_s(
        self, attempt: int, rng: Optional[np.random.Generator] = None
    ) -> float:
        """Backoff before retrying after failed attempt ``attempt``.

        With ``jitter > 0`` an RNG must be supplied — refusing to fall
        back to global random state is what makes the jitter seedable.
        """
        delay = min(self.base_delay_s * self.factor**attempt, self.max_delay_s)
        if self.jitter > 0.0:
            if rng is None:
                raise ValueError(
                    "jittered backoff needs an injected rng "
                    "(np.random.Generator) for reproducibility"
                )
            delay *= 1.0 + self.jitter * float(rng.random())
        return delay


@dataclass
class AttemptRecord:
    """One attempt of the supervised run."""

    attempt: int
    nworkers: int
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
    initial_plan: ScalingPlan
    final_plan: ScalingPlan
    attempts: list[AttemptRecord]
    history: dict[str, list[float]]
    eval_metrics: dict[str, float]
    dead_ranks: list[int]
    checkpoint_dir: str

    @property
    def nattempts(self) -> int:
        return len(self.attempts)

    @property
    def recovered(self) -> bool:
        """True when the run failed at least once and still completed."""
        return self.nattempts > 1 and self.attempts[-1].status == "completed"

    @property
    def final_world(self) -> int:
        return self.final_plan.nworkers

    @property
    def shrunk(self) -> bool:
        return self.final_world < self.initial_plan.nworkers

    @property
    def final_loss(self) -> float:
        return self.eval_metrics["loss"]


def replan_for_world(
    plan: ScalingPlan, nworkers: int, original_plan: Optional[ScalingPlan] = None
) -> ScalingPlan:
    """Re-derive a plan for a shrunken world from the paper's rules.

    Strong scaling re-partitions the *original* total epoch budget over
    the survivors (balanced, §2.3.2's ``comp_epochs``); weak scaling
    keeps epochs-per-worker. The learning rate follows the linear rule:
    the per-worker base LR (original LR / original world) times the new
    world size.
    """
    if nworkers <= 0:
        raise ValueError(f"nworkers must be positive, got {nworkers}")
    reference = original_plan if original_plan is not None else plan
    if plan.mode == "strong":
        epochs = comp_epochs_balanced(reference.total_epochs, nworkers)
    else:
        epochs = plan.epochs_per_worker
    lr = plan.learning_rate
    if lr is not None:
        base_lr = reference.learning_rate / reference.nworkers
        lr = scale_learning_rate(base_lr, nworkers)
    return replace(
        plan, nworkers=nworkers, epochs_per_worker=epochs, learning_rate=lr
    )


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
    allow_shrink: bool = True,
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
    # backoff jitter draws from a run-seeded generator, never global state
    backoff_rng = np.random.default_rng(seed)
    injector = FaultInjector(fault_plan) if fault_plan is not None else None
    checkpoint_dir = str(checkpoint_dir)
    manager = CheckpointManager(checkpoint_dir, keep_last=keep_last)
    tracer = active_tracer()

    current_plan = plan
    attempts: list[AttemptRecord] = []
    all_dead: list[int] = []  # original-world ids of permanently dead ranks
    identity = list(range(plan.nworkers))  # new rank -> original rank id

    max_attempts = retry.max_retries + 1
    for attempt in range(max_attempts):
        latest = manager.latest_restorable()
        record = AttemptRecord(
            attempt=attempt,
            nworkers=current_plan.nworkers,
            start_epoch=latest.epoch + 1 if latest is not None else 0,
            status="failed",
        )
        attempts.append(record)
        t0 = time.perf_counter()
        try:
            reports = run_spmd(
                current_plan.nworkers,
                lambda comm: run_rank(
                    comm, benchmark, tracer=tracer,
                    epochs=current_plan.epochs_per_worker,
                    batch_size=current_plan.batch_size,
                    learning_rate=current_plan.learning_rate,
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
            delay = retry.delay_s(attempt, rng=backoff_rng)
            record.backoff_s = delay
            if delay > 0:
                sleep(delay)
            if injector is not None:
                newly_dead = sorted(injector.dead_ranks)
                if newly_dead:
                    if not allow_shrink:
                        raise
                    survivors = [
                        r for r in range(current_plan.nworkers) if r not in newly_dead
                    ]
                    if not survivors:
                        raise
                    all_dead.extend(identity[r] for r in newly_dead)
                    identity = [identity[r] for r in survivors]
                    injector.remap_dead_ranks(survivors)
                    current_plan = replan_for_world(
                        current_plan, len(survivors), original_plan=plan
                    )
                injector.next_attempt()
            continue
        record.status = "completed"
        record.wall_s = time.perf_counter() - t0
        return ResilientRunResult(
            benchmark=benchmark.spec.name,
            initial_plan=plan,
            final_plan=current_plan,
            attempts=attempts,
            history=reports[0].history,
            eval_metrics=reports[0].eval_metrics,
            dead_ranks=sorted(all_dead),
            checkpoint_dir=checkpoint_dir,
        )
    raise RuntimeError("unreachable: retry loop must return or raise")
