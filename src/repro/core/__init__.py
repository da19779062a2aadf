"""repro.core — the paper's contribution: parallel methodology + data-loading fix.

Three pieces, straight from §2.3 and §5:

1. **Scaling methodology** — epoch partitioning across workers
   (:mod:`repro.core.epochs`, the paper's ``comp_epochs``), strong/weak
   scaling plans (:mod:`repro.core.scaling`, Fig 4a), batch-size scaling
   strategies (:mod:`repro.core.batch_scaling`, Fig 4b: linear, square
   root, cubic root), and linear learning-rate scaling
   (:mod:`repro.core.lr_scaling`).
2. **The optimized data loader** (:mod:`repro.ingest`, re-exported
   here as :func:`load_benchmark_data`) — chunked ``read_csv`` with
   ``low_memory=False`` (§5), plus the original and Dask-like methods
   for comparison.
3. **The parallel runner** (:mod:`repro.core.parallel`) — executes a
   CANDLE benchmark's three phases under Horovod data parallelism in
   functional mode (real training, real collectives, real timeline),
   the code path every accuracy experiment runs through.
"""

from repro.core.batch_scaling import (
    BATCH_STRATEGIES,
    memory_limited_batch,
    scale_batch_size,
)
from repro.ingest import load_benchmark_data
from repro.core.epochs import comp_epochs, comp_epochs_balanced, epochs_schedule
from repro.core.lr_scaling import scale_learning_rate
from repro.core.parallel import ParallelRunResult, run_parallel_benchmark
from repro.core.scaling import ScalingPlan, strong_scaling_plan, weak_scaling_plan

__all__ = [
    "comp_epochs",
    "comp_epochs_balanced",
    "epochs_schedule",
    "scale_batch_size",
    "memory_limited_batch",
    "BATCH_STRATEGIES",
    "scale_learning_rate",
    "load_benchmark_data",
    "ScalingPlan",
    "strong_scaling_plan",
    "weak_scaling_plan",
    "run_parallel_benchmark",
    "run_resilient_benchmark",
    "ParallelRunResult",
]


def __getattr__(name):
    # Lazy: repro.resilience imports repro.core submodules, so the
    # resilient runner can only be re-exported on demand.
    if name == "run_resilient_benchmark":
        from repro.core.parallel import run_resilient_benchmark

        return run_resilient_benchmark
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
