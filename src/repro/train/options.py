"""`TrainOptions`: the one public knob of a training step.

Before this module, configuring a distributed training step meant a
different keyword on every layer: ``arena=``/``dtype=`` on
:meth:`repro.nn.Sequential.build`, ``options=`` (a
:class:`~repro.comms.CollectiveOptions`) on
:class:`repro.hvd.DistributedOptimizer`, ``arena=``/``collective=`` on
:func:`repro.core.parallel.run_parallel_benchmark`, and — with the
overlap scheduler — a new set of knobs nobody had a home for. All of
that collapses into one keyword-only frozen dataclass, mirroring the
``CollectiveOptions`` pattern one level down: a ``TrainOptions`` is
threaded unchanged from the benchmark entry point through model
building, the distributed optimizer, the overlap scheduler, and across
to the simulator, so a functional run and a simulated run of the same
configuration execute (and charge) the same training step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.comms import CollectiveOptions
from repro.comms.ft.options import FaultToleranceOptions
from repro.options import (
    FrozenOptions,
    require_choice,
    require_in_interval,
    require_instance,
    require_positive,
)

__all__ = [
    "TrainOptions",
    "DEFAULT_TRAIN_OPTIONS",
    "OVERLAP_PRIORITIES",
]

#: ready-queue orderings for the overlap scheduler
OVERLAP_PRIORITIES = ("layer", "fifo")


@dataclass(frozen=True, kw_only=True)
class TrainOptions(FrozenOptions):
    """Keyword-only configuration for every training step in a run.

    The defaults reproduce the pre-existing behaviour exactly: arena
    storage at the model's default precision, engine-automatic
    collectives, no fault tolerance, and the serialized (non-overlapped)
    gradient exchange.
    """

    #: keep parameters/gradients in a flat :class:`~repro.nn.ParameterArena`
    #: (fused optimizer kernels + zero-copy slab allreduce); ``False`` is
    #: the per-parameter reference path
    arena: bool = True
    #: parameter/compute precision; None keeps the model default (float64)
    dtype: Optional[np.dtype] = None
    #: how gradient/metric collectives travel (algorithm, compression,
    #: fusion, chunking); None = the engine's automatic defaults
    collective: Optional[CollectiveOptions] = None
    #: fault-tolerant collectives (heartbeats, retransmission, elastic
    #: rebuild); convenience for ``collective.fault_tolerance`` — set it
    #: in one place only
    fault_tolerance: Optional[FaultToleranceOptions] = None
    #: overlap gradient allreduce with the backward pass (wait-free
    #: backprop) via :class:`repro.overlap.OverlapScheduler`
    overlap: bool = False
    #: ordering of simultaneously-ready gradient buckets: "layer" fires
    #: early-model-position layers first (the next forward consumes them
    #: first), "fifo" keeps slab order
    overlap_priority: str = "layer"
    #: concurrent gradient-exchange channels (worker threads, each with a
    #: private engine tag namespace) the scheduler drains buckets on; >1
    #: lets a small late bucket travel beside a large in-flight one.
    #: Forced to 1 under fault tolerance, compression, or a flat
    #: algorithm, whose engine paths are single-stream.
    overlap_channels: int = 2
    #: seconds the pre-update drain fence waits for in-flight buckets
    drain_timeout_s: float = 60.0

    def __post_init__(self):
        if self.dtype is not None:
            dt = np.dtype(self.dtype)
            if dt.kind != "f":
                raise ValueError(f"train dtype must be floating, got {dt}")
            object.__setattr__(self, "dtype", dt)
        require_instance("collective", self.collective, CollectiveOptions)
        require_instance(
            "fault_tolerance", self.fault_tolerance, FaultToleranceOptions
        )
        if self.fault_tolerance is not None:
            if (
                self.collective is not None
                and self.collective.fault_tolerance is not None
            ):
                raise ValueError(
                    "fault tolerance is configured twice: drop either "
                    "TrainOptions.fault_tolerance or "
                    "collective.fault_tolerance"
                )
        require_choice(
            "overlap_priority", self.overlap_priority, OVERLAP_PRIORITIES
        )
        require_in_interval("overlap_channels", self.overlap_channels, 1, 16)
        require_positive("drain_timeout_s", self.drain_timeout_s)
        if self.overlap and not self.arena:
            raise ValueError(
                "overlap=True requires arena=True: the scheduler reduces "
                "gradient-slab buckets in place"
            )

    # -- derived quantities -------------------------------------------------
    @property
    def effective_collective(self) -> Optional[CollectiveOptions]:
        """The CollectiveOptions this step's collectives actually use.

        Folds ``fault_tolerance`` into ``collective`` so downstream code
        (``hvd.init``, the engine, the simulator) keeps seeing a single
        CollectiveOptions. ``None`` means engine defaults, as before.
        """
        if self.fault_tolerance is None:
            return self.collective
        base = self.collective if self.collective is not None else CollectiveOptions()
        return base.evolve(fault_tolerance=self.fault_tolerance)


#: the step's defaults — arena storage, serialized exchange, no FT
DEFAULT_TRAIN_OPTIONS = TrainOptions()

