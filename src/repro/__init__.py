"""repro — reproduction of the ICPP 2019 CANDLE/Horovod performance study.

This package reimplements, from scratch and in pure Python/NumPy, every
system the paper "Performance, Energy, and Scalability Analysis and
Improvement of Parallel Cancer Deep Learning CANDLE Benchmarks" (Wu et
al., ICPP 2019) depends on:

- :mod:`repro.nn` — a Keras-like deep-learning framework (the paper uses
  Keras on TensorFlow).
- :mod:`repro.frame` — a pandas-like CSV/DataFrame engine with both the
  slow ``low_memory=True`` path and the paper's optimized chunked
  ``low_memory=False`` path.
- :mod:`repro.mpi` — an in-process SPMD MPI runtime with real collective
  algorithms (the paper uses MPI/NCCL through Horovod).
- :mod:`repro.comms` — the collective engine: ring, recursive
  halving-doubling, and two-level hierarchical allreduce schedules,
  planned once and shared by the functional runtime and the simulator,
  configured by one ``CollectiveOptions`` object.
- :mod:`repro.train` — the unified ``TrainOptions`` configuration of a
  training step (arena, precision, collectives, overlap), threaded from
  benchmark entry points to the simulator.
- :mod:`repro.overlap` — wait-free backprop: the compute/communication
  overlap scheduler that fires ready gradient buckets through the
  collective engine while backward continues.
- :mod:`repro.hvd` — a Horovod reimplementation: DistributedOptimizer,
  initial-weight broadcast, tensor fusion, Chrome-trace timelines.
- :mod:`repro.cluster` — machine models of Summit and Theta, including
  filesystem contention, fabric cost models, and power meters.
- :mod:`repro.candle` — the four CANDLE Pilot1 benchmarks (NT3, P1B1,
  P1B2, P1B3) with synthetic data generators matching the paper's shapes.
- :mod:`repro.core` — the paper's contribution: the parallel methodology
  (epoch partitioning, LR scaling, batch-size scaling strategies) and the
  optimized data-loading method.
- :mod:`repro.sim` — a discrete-event simulator that reruns the paper's
  scaling experiments at 1-3,072 workers on the machine models.
- :mod:`repro.resilience` — the paper's §7 future work, built out:
  seeded fault injection, checksummed checkpoint/restart, and elastic
  recovery with retries and world-shrinking.
- :mod:`repro.serve` — inference serving over the SPMD runtime:
  deadline-aware dynamic batching, replicated workers fed over the
  :mod:`repro.ps` RPC plane, checkpoint-backed model-version hot-swap,
  and SLO (p50/p99/throughput) tracking, configured by one
  ``ServeOptions`` object.
- :mod:`repro.telemetry` — the unified observability layer: one tracer
  of nestable spans and counters per run, power/energy attribution per
  span, Chrome-trace/JSONL/summary exporters shared by the functional
  and simulated paths, and the fixed-width report tables.
- :mod:`repro.analysis` — cProfile hot spots, energy accounting,
  timeline analysis, and plots.
- :mod:`repro.experiments` — one module per paper table/figure.

See DESIGN.md for the full inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

__version__ = "1.0.0"

__all__ = [
    "nn",
    "frame",
    "mpi",
    "comms",
    "train",
    "overlap",
    "hvd",
    "cluster",
    "candle",
    "core",
    "sim",
    "resilience",
    "telemetry",
    "analysis",
    "experiments",
    "ps",
    "serve",
]
