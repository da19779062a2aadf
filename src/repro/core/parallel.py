"""The functional parallel benchmark runner (paper Figs 2 & 3).

Executes a CANDLE benchmark's three phases under Horovod data
parallelism with *real* training and *real* collectives (SPMD threads):

1. **Data loading & preprocessing** — every rank reads the same CSVs
   (as the paper's benchmarks do) with a selectable method; an optional
   :class:`~repro.cluster.filesystem.IoSkewModel` stretches per-rank
   load times so the broadcast-delay mechanism is observable.
2. **Training & cross-validation** — each rank builds the model with a
   *different* seed, wraps the Table 1 optimizer in
   ``DistributedOptimizer``, registers
   ``BroadcastGlobalVariablesCallback(0)``, scales the learning rate
   linearly, and runs its share of epochs.
3. **Prediction & evaluation** — every rank evaluates on the test set.

Returns per-rank phase timings, rank-0 history, and the shared tracer
(phase spans plus the paper's Horovod timeline events) — everything
Figures 6-10 read in functional mode.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro import hvd
from repro.candle.base import CandleBenchmark, LoadedData
from repro.cluster.filesystem import IoSkewModel
from repro.core.scaling import ScalingPlan
from repro.ingest import LoaderConfig, as_config, load_benchmark_data
from repro.mpi import run_spmd
from repro.nn import get_optimizer
from repro.telemetry import Tracer
from repro.train import DEFAULT_TRAIN_OPTIONS, TrainOptions

__all__ = [
    "run_parallel_benchmark",
    "ParallelRunResult",
    "RankReport",
]


@dataclass
class RankReport:
    """One rank's phase timings and results."""

    rank: int
    load_s: float
    train_s: float
    eval_s: float
    history: dict[str, list[float]]
    eval_metrics: dict[str, float]

    @property
    def total_s(self) -> float:
        return self.load_s + self.train_s + self.eval_s


@dataclass
class ParallelRunResult:
    """Aggregate of a functional parallel run."""

    plan: ScalingPlan
    ranks: list[RankReport]
    wall_s: float
    tracer: Tracer
    #: ranks that died mid-run (fault injection) and were routed around
    #: by the elastic rebuild; their reports are absent from ``ranks``
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
    configuration of every rank's training step. ``arena=True`` (its
    default) keeps each rank's parameters in a flat
    :class:`~repro.nn.arena.ParameterArena`, so gradient allreduces are
    zero-copy slab slices and optimizer updates are fused; ``False``
    falls back to the per-parameter pack/unpack reference path (the two
    produce bit-identical weights). ``overlap=True`` installs the
    :class:`repro.overlap.OverlapScheduler` on every rank, hiding each
    step's gradient exchange behind its backward pass. None means
    ``DEFAULT_TRAIN_OPTIONS``.

    Every rank records ``load``/``train``/``eval`` phase spans — and,
    through :mod:`repro.hvd.ops`, its collectives — into one shared
    ``tracer`` (created fresh when not supplied, returned on the
    result), so the run yields a joint Chrome-trace/metrics view on top
    of the per-rank timings.

    ``train.collective`` governs every gradient and metric reduction in
    the run (algorithm, fusion size, chunking); None uses the engine's
    automatic, bit-identical defaults. When it sets
    ``fault_tolerance``, gradient reductions run over the
    fault-tolerant engine
    (:mod:`repro.comms.ft`): message faults from ``fault_injector`` (a
    :class:`repro.resilience.FaultInjector`) are retried or demoted, and
    a rank killed mid-collective is routed around by an elastic
    communicator rebuild — the survivors finish the run and the dead
    rank is listed on ``ParallelRunResult.dead_ranks``.
    """
    if train is None:
        train = DEFAULT_TRAIN_OPTIONS
    collective = train.collective
    if data is None and data_paths is None:
        data = benchmark.synth_arrays(np.random.default_rng(seed))
    load_config = as_config(load_method)
    loss_name, metric_names = benchmark.loss_and_metrics()
    if tracer is None:
        tracer = Tracer(run_id=f"{benchmark.spec.name}-x{plan.nworkers}")
    factors = (
        io_skew.factors(plan.nworkers, seed=seed) if io_skew is not None else None
    )

    def worker(comm):
        hvd.init(comm, tracer=tracer, options=collective)
        try:
            # ---- phase 1: data loading & preprocessing -------------------
            with tracer.span("load", rank=comm.rank) as sp_load:
                if data_paths is not None:
                    cfg = load_config
                    if cfg.method == "sharded" and cfg.shard is None:
                        cfg = cfg.with_shard(comm.rank, comm.size, allgather=True)
                    local = load_benchmark_data(
                        benchmark, data_paths[0], data_paths[1], method=cfg, comm=comm
                    )
                    sp_load.set_attrs(method=cfg.method)
                else:
                    local = data
                if factors is not None and skew_scale_s > 0:
                    # stretch this rank's load relative to the fastest rank
                    time.sleep((factors[comm.rank] - factors.min()) * skew_scale_s)
            local = benchmark.prepare(local)

            # ---- phase 2: training & cross-validation --------------------
            with tracer.span(
                "train", rank=comm.rank, epochs=plan.epochs_per_worker
            ) as sp_train:
                model = benchmark.build_model(
                    seed=seed + 1000 * (comm.rank + 1), train=train
                )
                base_opt = get_optimizer(benchmark.spec.optimizer, lr=plan.learning_rate)
                model.compile(
                    hvd.DistributedOptimizer(base_opt, train=train),
                    loss_name,
                    metrics=metric_names,
                )
                callbacks = [hvd.BroadcastGlobalVariablesCallback(0)]
                history = model.fit(
                    local.x_train,
                    local.y_train,
                    batch_size=min(plan.batch_size, len(local.x_train)),
                    epochs=plan.epochs_per_worker,
                    callbacks=callbacks,
                    validation_data=(local.x_test, local.y_test) if validation else None,
                    train=train,
                )

            # ---- phase 3: prediction & evaluation ------------------------
            with tracer.span("eval", rank=comm.rank) as sp_eval:
                metrics = model.evaluate(local.x_test, local.y_test)
            return RankReport(
                rank=comm.rank,
                load_s=sp_load.duration_s,
                train_s=sp_train.duration_s,
                eval_s=sp_eval.duration_s,
                history=dict(history.history),
                eval_metrics=metrics,
            )
        finally:
            hvd.shutdown()

    t_start = time.perf_counter()
    reports = run_spmd(
        plan.nworkers, worker, local_size=local_size,
        fault_injector=fault_injector,
    )
    wall = time.perf_counter() - t_start
    dead = tuple(i for i, r in enumerate(reports) if r is None)
    return ParallelRunResult(
        plan=plan,
        ranks=[r for r in reports if r is not None],
        wall_s=wall,
        tracer=tracer,
        dead_ranks=dead,
    )
