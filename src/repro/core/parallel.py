"""The functional parallel benchmark runner (paper Figs 2 & 3).

Runs a CANDLE benchmark under Horovod data parallelism with *real*
training and *real* collectives (SPMD threads): every rank executes
:func:`repro.candle.pipeline.run_rank` — load, train, evaluate — with
the hyperparameters of a :class:`~repro.core.scaling.ScalingPlan`
(epochs per worker, batch size, linearly scaled learning rate). What
is parallel-specific stays here:

- each rank builds the model with a *different* seed, so
  ``BroadcastGlobalVariablesCallback(0)`` has real work to do;
- an optional :class:`~repro.cluster.filesystem.IoSkewModel` stretches
  per-rank load times so the broadcast-delay mechanism is observable;
- no feature scaler runs.

Returns per-rank phase reports, rank-0 history, and the shared tracer
(phase spans plus the paper's Horovod timeline events) — everything
Figures 6-10 read in functional mode.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.candle.base import CandleBenchmark, LoadedData
from repro.candle.pipeline import BenchmarkRunReport, run_rank
from repro.cluster.filesystem import IoSkewModel
from repro.core.scaling import ScalingPlan
from repro.ingest import LoaderConfig
from repro.mpi import run_spmd
from repro.telemetry import Tracer
from repro.train import TrainOptions

__all__ = [
    "run_parallel_benchmark",
    "ParallelRunResult",
]


@dataclass
class ParallelRunResult:
    """Aggregate of a functional parallel run."""

    plan: ScalingPlan
    ranks: list[BenchmarkRunReport]
    wall_s: float
    tracer: Tracer
    #: always empty: a rank that fails aborts the run with an
    #: ``SpmdError``, so a result has a report from every rank. Kept for
    #: callers that check for dead ranks.
    dead_ranks: tuple = ()

    @property
    def nworkers(self) -> int:
        return len(self.ranks)

    @property
    def history(self) -> dict[str, list[float]]:
        """Rank 0's training history (ranks are weight-consistent)."""
        return self.ranks[0].history

    @property
    def final_train_metric(self) -> dict[str, float]:
        """Last-epoch training metrics from rank 0."""
        return {k: v[-1] for k, v in self.history.items() if v}

    def phase_seconds(self) -> dict[str, float]:
        """Max-over-ranks phase durations (the run is gated by the slowest)."""
        return {
            "load": max(r.load_s for r in self.ranks),
            "train": max(r.train_s for r in self.ranks),
            "eval": max(r.eval_s for r in self.ranks),
        }


def run_parallel_benchmark(
    benchmark: CandleBenchmark,
    plan: ScalingPlan,
    data: Optional[LoadedData] = None,
    data_paths: Optional[tuple] = None,
    load_method: "str | LoaderConfig" = "original",
    seed: int = 0,
    io_skew: Optional[IoSkewModel] = None,
    skew_scale_s: float = 0.0,
    local_size: int = 6,
    validation: bool = False,
    train: "Optional[TrainOptions]" = None,
    tracer: Optional[Tracer] = None,
    fault_injector=None,
) -> ParallelRunResult:
    """Run one benchmark under one scaling plan, functionally.

    Provide either ``data`` (pre-generated arrays, shared by all ranks —
    fast path for accuracy studies) or ``data_paths=(train, test)`` to
    make every rank genuinely parse the CSVs with ``load_method`` — a
    registry name or full :class:`repro.ingest.LoaderConfig`. With
    ``load_method="sharded"`` each rank parses only its 1/N row shard
    and the shards are allgathered, so the load skew that feeds the
    paper's broadcast delay genuinely shrinks. ``io_skew`` +
    ``skew_scale_s`` inject per-rank artificial load-time dispersion
    (rank sleeps ``(factor-1) * skew_scale_s``), which the
    negotiate_broadcast spans then expose.

    ``train`` is the run's :class:`repro.train.TrainOptions`, the single
    configuration of every rank's training step (arena storage,
    precision, ``overlap=True`` for wait-free backprop); None means
    ``DEFAULT_TRAIN_OPTIONS``.

    Every rank records ``load``/``train``/``eval`` phase spans — and,
    through :mod:`repro.hvd.ops`, its collectives — into one shared
    ``tracer`` (created fresh when not supplied, returned on the
    result), so the run yields a joint Chrome-trace/metrics view on top
    of the per-rank timings.

    ``train.collective`` governs every gradient and metric reduction in
    the run (algorithm, fusion size, chunking); None uses the engine's
    automatic, bit-identical defaults.

    ``fault_injector`` (a :class:`repro.resilience.FaultInjector`) fires
    its epoch and step faults on every rank: a crash fails the run with
    an :class:`~repro.mpi.runtime.SpmdError` naming the rank (retrying
    is :func:`repro.resilience.run_resilient_benchmark`'s job).
    """
    if data is None and data_paths is None:
        data = benchmark.synth_arrays(np.random.default_rng(seed))
    if tracer is None:
        tracer = Tracer(run_id=f"{benchmark.spec.name}-x{plan.nworkers}")
    factors = (
        io_skew.factors(plan.nworkers, seed=seed) if io_skew is not None else None
    )

    t_start = time.perf_counter()
    # each rank keeps only its report: its model is freed as it finishes
    reports = run_spmd(
        plan.nworkers,
        lambda comm: run_rank(
            comm, benchmark, tracer=tracer, epochs=plan.epochs_per_worker,
            batch_size=plan.batch_size, learning_rate=plan.learning_rate,
            model_seed=seed + 1000 * (comm.rank + 1),
            data=data, data_paths=data_paths, load_method=load_method,
            # stretch this rank's load relative to the fastest rank
            load_delay_s=(
                (factors[comm.rank] - factors.min()) * skew_scale_s
                if factors is not None else 0.0
            ),
            validation=validation, train=train,
        )[0],
        local_size=local_size,
        fault_injector=fault_injector,
    )
    wall = time.perf_counter() - t_start
    return ParallelRunResult(
        plan=plan,
        ranks=reports,
        wall_s=wall,
        tracer=tracer,
    )
