"""The complete Figure 2 control flow, once, for every runner.

"Each CANDLE benchmark entails three phases: data loading and
preprocessing, basic training and cross-validation, and prediction and
evaluation on test data." :func:`run_rank` is those phases for one rank
of an SPMD world: it loads the CSVs with a selectable method, applies
the benchmark's feature scaler (:mod:`repro.candle.preprocessing`),
trains under Horovod with the caller's hyperparameters, and evaluates —
returning one :class:`BenchmarkRunReport` with phase timings and
metrics. Every runner reaches it through :func:`repro.mpi.run_spmd`:
:func:`run_benchmark` (the benchmark ``main()``) at world 1,
:func:`repro.core.parallel.run_parallel_benchmark` at a scaling plan's
world, and :func:`repro.resilience.run_resilient_benchmark` once per
attempt.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro import hvd
from repro.candle.base import CandleBenchmark, LoadedData
from repro.candle.preprocessing import get_scaler
from repro.ingest import as_config, load_benchmark_data
from repro.ingest.prefetch import EpochPrefetcher
from repro.mpi import run_spmd
from repro.mpi.runtime import SpmdError
from repro.nn import Sequential, get_optimizer
from repro.serve import ClosedWorkload, serve_workload
from repro.telemetry import Tracer, tracing
from repro.train import DEFAULT_TRAIN_OPTIONS

__all__ = ["run_benchmark", "run_rank", "BenchmarkRunReport"]


@dataclass
class BenchmarkRunReport:
    """One benchmark run (or one rank of it): phase seconds + metrics +
    history.

    The three Figure 2 phases are always present; ``serve_s`` /
    ``serve_report`` are filled only when the run was asked to serve
    the trained model afterwards (``serve=`` on :func:`run_benchmark`).
    """

    benchmark: str
    load_s: float
    train_s: float
    eval_s: float
    serve_s: float = 0.0
    history: dict[str, list[float]] = field(default_factory=dict)
    eval_metrics: dict[str, float] = field(default_factory=dict)
    serve_report: Optional[object] = None
    tracer: Optional[Tracer] = None

    @property
    def total_s(self) -> float:
        return self.load_s + self.train_s + self.eval_s + self.serve_s

    def dominant_phase(self) -> str:
        phases = {"load": self.load_s, "train": self.train_s, "eval": self.eval_s}
        if self.serve_s > 0:
            phases["serve"] = self.serve_s
        return max(phases, key=phases.get)


def run_rank(
    comm,
    benchmark: CandleBenchmark,
    *,
    tracer: Optional[Tracer],
    epochs: int,
    batch_size: int,
    learning_rate: Optional[float],
    model_seed: int,
    data: Optional[LoadedData] = None,
    data_paths: Optional[tuple] = None,
    load_method="original",
    scaler: Optional[str] = None,
    load_delay_s: float = 0.0,
    validation: bool = False,
    train=None,
    checkpoint=None,
    checkpoint_every: int = 1,
    initial_epoch: int = 0,
) -> tuple[BenchmarkRunReport, Sequential, LoadedData]:
    """One rank's load → prepare → build → broadcast → fit → evaluate.

    Runs on ``comm`` (from :func:`repro.mpi.run_spmd`) under
    :func:`repro.hvd.init`, recording ``load``/``train``/``eval`` spans
    and the collectives on ``tracer`` (None: the collectives adopt the
    active tracer, if any, and a private one times the phases).
    ``load``: ``data``, or ``data_paths`` parsed through ``load_method``
    (a ``sharded`` config without a shard takes this rank's), then
    ``scaler`` and a ``load_delay_s`` sleep. ``train``:
    the model from ``model_seed`` under ``hvd.DistributedOptimizer``,
    rank 0's weights broadcast, ``fit`` from ``initial_epoch`` to
    ``epochs``; the communicator's fault injector fires its epoch and
    step faults, a ``checkpoint`` manager is restored (it must resume at
    ``initial_epoch``) and written every ``checkpoint_every`` epochs,
    and a ``prefetch=True`` config feeds the epochs from an
    :class:`~repro.ingest.prefetch.EpochPrefetcher`.

    Returns the rank's report, trained model and prepared data.
    """
    spec = benchmark.spec
    train = train if train is not None else DEFAULT_TRAIN_OPTIONS
    config = as_config(load_method)
    hvd.init(comm, tracer=tracer, options=train.collective)
    phases = tracer if tracer is not None else Tracer(run_id=spec.name)
    try:
        # ---- phase 1: data loading and preprocessing ---------------------
        with phases.span("load", rank=comm.rank, load_method=config.method) as sp_load:
            if data_paths is not None:
                if config.method == "sharded" and config.shard is None:
                    config = config.with_shard(comm.rank, comm.size, allgather=True)
                data = load_benchmark_data(
                    benchmark, data_paths[0], data_paths[1], method=config, comm=comm
                )
            scale = get_scaler(scaler)
            if scale is not None:
                # the scaled copies replace the loaded arrays, which die
                # here unless the caller passed them in
                x_train = scale.fit_transform(
                    data.x_train.reshape(len(data.x_train), -1)
                ).reshape(data.x_train.shape)
                x_test = scale.transform(
                    data.x_test.reshape(len(data.x_test), -1)
                ).reshape(data.x_test.shape)
                if spec.task == "autoencoder":
                    data = LoadedData(x_train, x_train, x_test, x_test)
                else:
                    data = LoadedData(x_train, data.y_train, x_test, data.y_test)
            if load_delay_s > 0:
                # a schedule, not a poll: the injected I/O skew is this
                # rank's extra load time
                time.sleep(load_delay_s)
            sp_load.set_attrs(
                rows_train=len(data.x_train), rows_test=len(data.x_test)
            )

        # benchmarks with a conv front end (P1B3 conv=True) need a channel axis
        data = benchmark.prepare(data)

        # ---- phase 2: training and cross-validation ----------------------
        with phases.span("train", rank=comm.rank, epochs=epochs) as sp_train:
            model = benchmark.build_model(seed=model_seed, train=train)
            loss, metric_names = benchmark.loss_and_metrics()
            base = get_optimizer(spec.optimizer, lr=learning_rate)
            model.compile(
                hvd.DistributedOptimizer(base, train=train), loss, metrics=metric_names
            )
            callbacks = [hvd.BroadcastGlobalVariablesCallback(0)]
            if checkpoint is not None:
                meta = checkpoint.restore_distributed(model)
                resumed = int(meta["epoch"]) + 1 if meta is not None else 0
                if resumed != initial_epoch:
                    raise RuntimeError(
                        f"restored epoch {resumed}, expected {initial_epoch}"
                    )
                callbacks.append(
                    hvd.ManagedCheckpointCallback(checkpoint, every_n_epochs=checkpoint_every)
                )
            if comm.fault_injector is not None:
                callbacks.append(hvd.FaultInjectionCallback(comm.fault_injector))
            history = {}
            if epochs > initial_epoch:
                fit_x, fit_y = data.x_train, data.y_train
                if config.prefetch:
                    # epochs from a background loader, shard-shuffled by
                    # the config's shuffle_seed
                    fit_x = EpochPrefetcher.from_config(
                        fit_x, fit_y, epochs - initial_epoch, config
                    )
                    fit_y = None
                history = model.fit(
                    fit_x,
                    fit_y,
                    batch_size=min(batch_size, len(data.x_train)),
                    epochs=epochs - initial_epoch,
                    initial_epoch=initial_epoch,
                    callbacks=callbacks,
                    validation_data=(data.x_test, data.y_test) if validation else None,
                    train=train,
                ).history
                if config.prefetch:
                    sp_train.set_attrs(
                        prefetch_hidden_s=model.last_prefetch_stats.hidden_s,
                        prefetch_wait_s=model.last_prefetch_stats.wait_s,
                    )

        # ---- phase 3: prediction and evaluation --------------------------
        with phases.span("eval", rank=comm.rank) as sp_eval:
            eval_metrics = model.evaluate(data.x_test, data.y_test)
    finally:
        hvd.shutdown()
    report = BenchmarkRunReport(
        benchmark=spec.name,
        load_s=sp_load.duration_s,
        train_s=sp_train.duration_s,
        eval_s=sp_eval.duration_s,
        history=dict(history),
        eval_metrics=eval_metrics,
        tracer=tracer,
    )
    return report, model, data


def run_benchmark(
    benchmark: CandleBenchmark,
    data_paths: Optional[tuple] = None,
    load_method="original",
    scaler: Optional[str] = "maxabs",
    epochs: Optional[int] = None,
    batch_size: Optional[int] = None,
    learning_rate: Optional[float] = None,
    seed: int = 0,
    validation: bool = True,
    tracer: Optional[Tracer] = None,
    train=None,
    serve=None,
) -> BenchmarkRunReport:
    """Execute the benchmark's three phases serially: :func:`run_rank`
    at world 1, on the calling thread.

    ``train`` is an optional :class:`repro.train.TrainOptions` forwarded
    to ``build_model`` and ``fit`` — the single switchboard for arena
    storage, precision and collective transport.

    ``serve`` is an optional :class:`repro.serve.ServeOptions`: when
    given, a fourth phase follows evaluation — the trained weights are
    installed on ``serve.replicas`` inference workers and a short
    closed-loop workload drawn from the test rows is served through
    the dynamic batcher (:func:`repro.serve.serve_workload`). The
    resulting :class:`~repro.serve.ServeReport` lands on
    ``report.serve_report``.

    With ``data_paths=(train_csv, test_csv)`` the loading phase really
    parses files via ``load_method`` — an ingest registry name or a
    full :class:`repro.ingest.LoaderConfig`; without, synthetic arrays
    are generated in memory beforehand (loading cost ≈ 0).
    Hyperparameters default to the benchmark's Table 1 values; the model
    is built with ``seed``.

    Each phase is a telemetry span (``load``/``train``/``eval``) on
    ``tracer`` — a fresh per-run :class:`repro.telemetry.Tracer` when
    not supplied, returned on the report — and the tracer is active for
    the duration, so ingest loads and checkpoint writes nest inside the
    phase that caused them. A phase's exception propagates as raised.
    """
    spec = benchmark.spec
    if tracer is None:
        tracer = Tracer(run_id=spec.name)
    data = None
    if data_paths is None:
        data = benchmark.synth_arrays(np.random.default_rng(seed))
    with tracing(tracer):
        try:
            ((report, model, data),) = run_spmd(1, lambda comm: run_rank(
                comm, benchmark, tracer=tracer,
                epochs=epochs if epochs is not None else min(spec.epochs, 8),
                batch_size=batch_size or spec.batch_size,
                learning_rate=learning_rate if learning_rate is not None else spec.learning_rate,
                model_seed=seed, data=data, data_paths=data_paths,
                load_method=load_method, scaler=scaler, validation=validation, train=train,
            ))
        except SpmdError as exc:
            raise exc.cause from None

        # ---- phase 4 (optional): serve the trained model -----------------
        if serve is not None:
            with tracer.span("serve", replicas=serve.replicas) as sp_serve:
                weights = {
                    name: p.copy() for name, p in model.named_parameters().items()
                }
                workload = ClosedWorkload(
                    clients=2, requests_per_client=8, rows_per_request=1
                )
                report.serve_report = serve_workload(
                    lambda: benchmark.build_model(seed=seed, train=train),
                    workload,
                    data.x_test,
                    serve,
                    initial_weights=weights,
                )
                sp_serve.set_attrs(
                    requests=report.serve_report.slo.requests,
                    p99_ms=report.serve_report.slo.p99_ms,
                )
            report.serve_s = sp_serve.duration_s
    return report
