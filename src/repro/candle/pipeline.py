"""The complete Figure 2 control flow as one entry point.

"Each CANDLE benchmark entails three phases: data loading and
preprocessing, basic training and cross-validation, and prediction and
evaluation on test data." This module is the benchmark ``main()``: it
loads the CSVs with a selectable method, applies the benchmark's
feature scaler (:mod:`repro.candle.preprocessing`), trains with the
Table 1 hyperparameters (optionally under Horovod via the caller's
plan), and evaluates — returning one
:class:`BenchmarkRunReport` with phase timings and metrics.

This is the serial path; the parallel path with the same phase
structure is :func:`repro.core.parallel.run_parallel_benchmark`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.candle.base import CandleBenchmark, LoadedData
from repro.candle.preprocessing import get_scaler
from repro.ingest import load_benchmark_data
from repro.ingest.prefetch import EpochPrefetcher
from repro.nn import get_optimizer
from repro.serve import ClosedWorkload, serve_workload
from repro.telemetry import Tracer, tracing

__all__ = ["run_benchmark", "BenchmarkRunReport"]


@dataclass
class BenchmarkRunReport:
    """One benchmark run: phase seconds + metrics + history.

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
    """Execute the benchmark's three phases serially.

    ``train`` is an optional :class:`repro.train.TrainOptions` forwarded
    to ``build_model`` and ``fit`` — the single switchboard for arena
    storage, precision, collective transport, and (under a distributed
    caller) gradient-exchange overlap.

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
    are generated in memory (loading cost ≈ 0). Hyperparameters default
    to the benchmark's Table 1 values.

    Each phase is a telemetry span (``load``/``train``/``eval``) on
    ``tracer`` — a fresh per-run :class:`repro.telemetry.Tracer` when
    not supplied, returned on the report — and the tracer is active for
    the duration, so ingest loads, collectives, and checkpoint writes
    nest inside the phase that caused them.
    """
    spec = benchmark.spec
    if tracer is None:
        tracer = Tracer(run_id=spec.name)
    with tracing(tracer):
        # ---- phase 1: data loading and preprocessing ---------------------
        with tracer.span("load", load_method=str(getattr(load_method, "method", load_method))) as sp_load:
            if data_paths is not None:
                data = load_benchmark_data(
                    benchmark, data_paths[0], data_paths[1], method=load_method
                )
            else:
                data = benchmark.synth_arrays(np.random.default_rng(seed))
            x_train, x_test = data.x_train, data.x_test
            scale = get_scaler(scaler)
            if scale is not None:
                flat_train = x_train.reshape(len(x_train), -1)
                flat_test = x_test.reshape(len(x_test), -1)
                x_train = scale.fit_transform(flat_train).reshape(x_train.shape)
                x_test = scale.transform(flat_test).reshape(x_test.shape)
                if benchmark.spec.task == "autoencoder":
                    data = LoadedData(x_train, x_train, x_test, x_test)
                else:
                    data = LoadedData(x_train, data.y_train, x_test, data.y_test)
            sp_load.set_attrs(
                rows_train=len(data.x_train), rows_test=len(data.x_test)
            )

        # benchmarks with a conv front end (P1B3 conv=True) need a channel axis
        data = benchmark.prepare(data)

        # ---- phase 2: training and cross-validation ----------------------
        n_epochs = epochs if epochs is not None else min(spec.epochs, 8)
        with tracer.span("train", epochs=n_epochs) as sp_train:
            model = benchmark.build_model(seed=seed, train=train)
            loss, metric_names = benchmark.loss_and_metrics()
            model.compile(
                get_optimizer(spec.optimizer, lr=learning_rate if learning_rate is not None else spec.learning_rate),
                loss,
                metrics=metric_names,
            )
            fit_x, fit_y = data.x_train, data.y_train
            if getattr(load_method, "prefetch", False):
                # LoaderConfig(prefetch=True): feed epochs from a
                # background loader, shard-shuffled by shuffle_seed
                fit_x = EpochPrefetcher.from_config(
                    data.x_train, data.y_train, n_epochs, load_method
                )
                fit_y = None
            history = model.fit(
                fit_x,
                fit_y,
                batch_size=min(batch_size or spec.batch_size, len(data.x_train)),
                epochs=n_epochs,
                validation_data=(data.x_test, data.y_test) if validation else None,
                train=train,
            )
            if fit_y is None and model.last_prefetch_stats is not None:
                sp_train.set_attrs(
                    prefetch_hidden_s=model.last_prefetch_stats.hidden_s,
                    prefetch_wait_s=model.last_prefetch_stats.wait_s,
                )

        # ---- phase 3: prediction and evaluation --------------------------
        with tracer.span("eval") as sp_eval:
            eval_metrics = model.evaluate(data.x_test, data.y_test)

        # ---- phase 4 (optional): serve the trained model -----------------
        serve_report = None
        serve_s = 0.0
        if serve is not None:
            with tracer.span("serve", replicas=serve.replicas) as sp_serve:
                weights = {
                    name: p.copy() for name, p in model.named_parameters().items()
                }
                workload = ClosedWorkload(
                    clients=2, requests_per_client=8, rows_per_request=1
                )
                serve_report = serve_workload(
                    lambda: benchmark.build_model(seed=seed, train=train),
                    workload,
                    data.x_test,
                    serve,
                    initial_weights=weights,
                )
                sp_serve.set_attrs(
                    requests=serve_report.slo.requests,
                    p99_ms=serve_report.slo.p99_ms,
                )
            serve_s = sp_serve.duration_s

    return BenchmarkRunReport(
        benchmark=spec.name,
        load_s=sp_load.duration_s,
        train_s=sp_train.duration_s,
        eval_s=sp_eval.duration_s,
        serve_s=serve_s,
        history=dict(history.history),
        eval_metrics=eval_metrics,
        serve_report=serve_report,
        tracer=tracer,
    )
