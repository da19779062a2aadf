"""`TrainOptions`: the one public knob of a training step.

Before this module, configuring a distributed training step meant a
different keyword on every layer: ``dtype=`` on
:meth:`repro.nn.Sequential.build`, ``options=`` (a
:class:`~repro.comms.CollectiveOptions`) on
:class:`repro.hvd.DistributedOptimizer`, ``collective=`` on
:func:`repro.core.parallel.run_parallel_benchmark`, and — with the
overlap scheduler — a new set of knobs nobody had a home for. All of
that collapses into one keyword-only frozen dataclass, mirroring the
``CollectiveOptions`` pattern one level down: a ``TrainOptions`` is
threaded unchanged from the benchmark entry point through model
building, the distributed optimizer, the overlap scheduler, and across
to the simulator, so a functional run and a simulated run of the same
configuration execute (and charge) the same training step.

Storage is not a knob: a model with parameters always keeps them in a
:class:`~repro.nn.ParameterArena`, which every step updates with the
fused slab kernels and reduces slice by slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.comms import CollectiveOptions
from repro.options import (
    FrozenOptions,
    require_in_interval,
    require_instance,
)

__all__ = [
    "TrainOptions",
    "DEFAULT_TRAIN_OPTIONS",
]


@dataclass(frozen=True, kw_only=True)
class TrainOptions(FrozenOptions):
    """Keyword-only configuration for every training step in a run.

    The defaults: the model's default precision
    (``repro.nn.DEFAULT_DTYPE``, float32), engine-automatic collectives,
    and the serialized (non-overlapped) gradient exchange.
    """

    #: parameter/compute precision; None keeps the model default
    #: (``repro.nn.DEFAULT_DTYPE``, float32). Oracles name float64.
    dtype: Optional[np.dtype] = None
    #: how gradient/metric collectives travel (algorithm, fusion,
    #: chunking); None = the engine's automatic defaults
    collective: Optional[CollectiveOptions] = None
    #: overlap gradient allreduce with the backward pass (wait-free
    #: backprop) via :class:`repro.overlap.OverlapScheduler`
    overlap: bool = False
    #: concurrent gradient-exchange channels (worker threads, each with a
    #: private engine tag namespace) the scheduler drains buckets on; >1
    #: lets a small late bucket travel beside a large in-flight one.
    #: Capped at the plan's bucket count.
    overlap_channels: int = 2

    def __post_init__(self):
        if self.dtype is not None:
            dt = np.dtype(self.dtype)
            if dt.kind != "f":
                raise ValueError(f"train dtype must be floating, got {dt}")
            object.__setattr__(self, "dtype", dt)
        require_instance("collective", self.collective, CollectiveOptions)
        require_in_interval("overlap_channels", self.overlap_channels, 1, 16)


#: the step's defaults — model precision, serialized exchange
DEFAULT_TRAIN_OPTIONS = TrainOptions()

