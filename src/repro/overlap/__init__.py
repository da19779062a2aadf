"""repro.overlap — wait-free backprop for the arena training step.

The :class:`OverlapScheduler` hooks the backward pass of an
arena-built :class:`~repro.nn.Sequential`, submits gradient buckets
to their channel's :class:`~repro.worker.Worker` the moment their
layers finish, and runs their allreduce schedules there while backward
continues — draining at a fence before the fused optimizer update so
the step stays bit-identical to the serialized step.
Enabled per run with ``TrainOptions(overlap=True)``.
"""

from repro.overlap.scheduler import GradientBucket, OverlapScheduler, OverlapStats

__all__ = ["OverlapScheduler", "OverlapStats", "GradientBucket"]
