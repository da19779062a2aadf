"""Resilient execution: retry, resume, and elastic world shrinking.

:func:`run_resilient_benchmark` is the fault-tolerant sibling of
:func:`repro.core.parallel.run_parallel_benchmark`. It runs the same
three-phase CANDLE/Horovod job (load → train+checkpoint → evaluate),
but wraps every attempt in a supervisor loop:

1. a failed attempt (any rank crash, injected or real) is retried with
   capped exponential backoff;
2. each retry resumes from the newest *checksum-valid* checkpoint via
   :class:`~repro.resilience.CheckpointManager` — with a fixed shuffle
   order the recovered run is bit-identical to an uninterrupted one;
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

from repro import hvd
from repro.candle.base import CandleBenchmark, LoadedData
from repro.comms.ft.channel import RetryPolicy
from repro.core.epochs import comp_epochs_balanced
from repro.core.lr_scaling import scale_learning_rate
from repro.core.scaling import ScalingPlan
from repro.mpi import run_spmd
from repro.mpi.runtime import SpmdError
from repro.nn import get_optimizer
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.faults import FaultInjector, FaultPlan

__all__ = [
    "AttemptRecord",
    "ResilientRunResult",
    "run_resilient_benchmark",
    "replan_for_world",
]


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

    @property
    def total_backoff_s(self) -> float:
        return sum(a.backoff_s for a in self.attempts)


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
    without waiting it out. Training always uses a fixed shuffle order,
    which is what makes checkpoint-resumed runs bit-exact.
    """
    if data is None:
        data = benchmark.synth_arrays(np.random.default_rng(seed))
    data = benchmark.prepare(data)
    retry = retry if retry is not None else RetryPolicy()
    # backoff jitter draws from a run-seeded generator, never global state
    backoff_rng = np.random.default_rng(seed)
    loss_name, metric_names = benchmark.loss_and_metrics()
    injector = FaultInjector(fault_plan) if fault_plan is not None else None
    checkpoint_dir = str(checkpoint_dir)

    current_plan = plan
    attempts: list[AttemptRecord] = []
    all_dead: list[int] = []  # original-world ids of permanently dead ranks
    identity = list(range(plan.nworkers))  # new rank -> original rank id

    def worker(comm):
        hvd.init(comm)
        try:
            manager = CheckpointManager(
                checkpoint_dir, keep_last=keep_last
            )
            model = benchmark.build_model(seed=seed + 1000 * (comm.rank + 1))
            base_opt = get_optimizer(
                benchmark.spec.optimizer, lr=current_plan.learning_rate
            )
            model.compile(
                hvd.DistributedOptimizer(base_opt), loss_name, metrics=metric_names
            )
            callbacks = [hvd.BroadcastGlobalVariablesCallback(0)]
            meta = manager.restore_distributed(model)
            start = int(meta["epoch"]) + 1 if meta is not None else 0
            callbacks.append(
                hvd.ManagedCheckpointCallback(manager, every_n_epochs=every_n_epochs)
            )
            if injector is not None:
                callbacks.append(hvd.FaultInjectionCallback(injector))
            target = current_plan.epochs_per_worker
            epochs_to_run = max(0, target - start)
            history: dict[str, list[float]] = {}
            if epochs_to_run > 0:
                fit_history = model.fit(
                    data.x_train,
                    data.y_train,
                    batch_size=min(current_plan.batch_size, len(data.x_train)),
                    epochs=epochs_to_run,
                    initial_epoch=start,
                    shuffle=False,
                    callbacks=callbacks,
                )
                history = dict(fit_history.history)
            metrics = model.evaluate(data.x_test, data.y_test)
            return history, metrics, start
        finally:
            hvd.shutdown()

    max_attempts = retry.max_retries + 1
    for attempt in range(max_attempts):
        start_epoch_guess = 0
        t0 = time.perf_counter()
        try:
            reports = run_spmd(
                current_plan.nworkers,
                worker,
                local_size=local_size,
                fault_injector=injector,
            )
        except SpmdError as exc:
            record = AttemptRecord(
                attempt=attempt,
                nworkers=current_plan.nworkers,
                start_epoch=start_epoch_guess,
                status="failed",
                failed_ranks=exc.failed_ranks,
                error=str(exc),
                wall_s=time.perf_counter() - t0,
            )
            attempts.append(record)
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
        # success
        history, metrics, resumed_from = reports[0]
        attempts.append(
            AttemptRecord(
                attempt=attempt,
                nworkers=current_plan.nworkers,
                start_epoch=resumed_from,
                status="completed",
                wall_s=time.perf_counter() - t0,
            )
        )
        return ResilientRunResult(
            benchmark=benchmark.spec.name,
            initial_plan=plan,
            final_plan=current_plan,
            attempts=attempts,
            history=history,
            eval_metrics=metrics,
            dead_ranks=sorted(all_dead),
            checkpoint_dir=checkpoint_dir,
        )
    raise RuntimeError("unreachable: retry loop must return or raise")
