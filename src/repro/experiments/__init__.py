"""repro.experiments — the paper's tables and figures, regenerated.

Every experiment is a function ``run(fast=True, ...) -> ExperimentResult``
that regenerates the rows/series its table or figure reports, one module
each, but for the nine original-vs-optimized figures (11, 13-18, 20,
21): those are rows of one table in :mod:`repro.experiments.improvement`.
Each declares its own further keywords (``nworkers=``, ``method=``,
``collective=``). :func:`run_experiment` calls one by id and passes its
keywords through as they are:
``run_experiment("fig12", fast=True, nworkers=96)``.

========== =============================================================
id         what it reproduces
========== =============================================================
table1     benchmark characteristics (epochs, batch, samples, steps)
fig6       NT3 Summit strong scaling: times (a) and accuracy (b)
table2     NT3 time/epoch and average GPU power vs GPUs
fig7       GPU power over time + Horovod timeline on 384 GPUs
fig8       P1B1 strong scaling: times (a) and training loss (b)
fig9       P1B2 strong scaling: times (a) and accuracy (b)
fig10      P1B3 batch-size scaling strategies: times (a), accuracy (b)
table3     data-loading seconds by method on Summit
table4     data-loading seconds by method on Theta
fig11      NT3 Summit: original vs optimized total time
table5     NT3 Summit: GPU power and energy, original vs optimized
fig12      NT3 broadcast overhead, original vs optimized (384 GPUs)
fig13      NT3 Theta: performance + energy improvement
fig14      P1B1 Summit: performance + energy improvement
fig15      P1B1 Theta: performance + energy improvement
fig16      P1B2 Summit: performance + energy improvement
fig17      P1B2 Theta: performance + energy improvement
p1b3_opt   §5.4: P1B3 sees only ~6.5% improvement
fig18      NT3 weak scaling on Summit up to 3,072 GPUs
fig19      weak-scaling broadcast overhead on 768 GPUs
table6     NT3 weak scaling: accuracy, time/epoch, power
fig20      P1B1 weak scaling: performance + energy
fig21      P1B2 weak scaling: performance + energy
calibration the model-vs-paper anchor table (Appendix of EXPERIMENTS.md)
========== =============================================================

``fast=True`` (the default, used by tests) shrinks the functional
training runs; ``fast=False`` runs the full grids the benchmark harness
uses to regenerate EXPERIMENTS.md.
"""

from repro.experiments.base import (
    ExperimentResult,
    list_experiments,
    run_experiment,
)

__all__ = [
    "ExperimentResult",
    "run_experiment",
    "list_experiments",
]
