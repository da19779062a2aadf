"""repro.train — the unified training-step configuration surface.

One frozen, keyword-only :class:`TrainOptions` object carries every
knob of a training step (precision, collective transport,
compute/communication overlap) from
the benchmark entry point down through ``Sequential.build``/``fit``,
``hvd.DistributedOptimizer``, the overlap scheduler, and the simulator
— replacing the scattered ``dtype=``/``options=`` keywords.
"""

from repro.train.options import DEFAULT_TRAIN_OPTIONS, TrainOptions

__all__ = [
    "TrainOptions",
    "DEFAULT_TRAIN_OPTIONS",
]
