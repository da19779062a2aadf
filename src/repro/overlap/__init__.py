"""repro.overlap — wait-free backprop for the arena training step.

The :class:`OverlapScheduler` hooks the backward pass of an
arena-built :class:`~repro.nn.Sequential`, releases gradient buckets
onto a priority ready-queue the moment their layers finish, and fires
their allreduce schedules on a background worker while backward
continues — draining at a fence before the fused optimizer update so
the step stays bit-identical to the serialized step.
Enabled per run with ``TrainOptions(overlap=True)``.
"""

from repro.overlap.scheduler import GradientBucket, OverlapScheduler, OverlapStats

__all__ = ["OverlapScheduler", "OverlapStats", "GradientBucket"]
