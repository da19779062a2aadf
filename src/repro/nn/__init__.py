"""repro.nn — a from-scratch, Keras-like deep-learning framework on NumPy.

The CANDLE benchmarks are written against Keras; this subpackage provides
the subset of the Keras API those benchmarks need, implemented entirely
with vectorized NumPy so the accuracy experiments in the paper can be run
for real (at reduced data scale) without TensorFlow.

Public API mirrors Keras naming:

- :class:`repro.nn.models.Sequential` with ``compile/fit/evaluate/predict``
- layers: ``Dense``, ``Conv1D``, ``MaxPooling1D``, ``Flatten``,
  ``Dropout``, ``Activation``, ``LocallyConnected1D``
- optimizers: ``SGD``, ``Adam``, ``RMSprop``
- losses: ``categorical_crossentropy``, ``mse``; metrics: ``accuracy``,
  ``mae``
- the L2 kernel regularizer (P1B2) and the ``glorot_uniform`` initializer
- callbacks: ``Callback``, ``History``, ``LambdaCallback``
- checkpoints: ``save_checkpoint``, ``load_checkpoint``
"""

from repro.nn import activations, initializers, losses, metrics, regularizers
from repro.nn.arena import DEFAULT_DTYPE, ParameterArena
from repro.nn.callbacks import (
    Callback,
    CallbackList,
    History,
    LambdaCallback,
)
from repro.nn.layers import (
    Activation,
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    LocallyConnected1D,
    MaxPooling1D,
)
from repro.nn.models import Sequential
from repro.nn.serialization import CheckpointError, load_checkpoint, save_checkpoint
from repro.nn.optimizers import SGD, Adam, Optimizer, RMSprop, get as get_optimizer

__all__ = [
    "DEFAULT_DTYPE",
    "activations",
    "initializers",
    "losses",
    "metrics",
    "regularizers",
    "Callback",
    "CallbackList",
    "History",
    "LambdaCallback",
    "Activation",
    "Conv1D",
    "Dense",
    "Dropout",
    "Flatten",
    "Layer",
    "LocallyConnected1D",
    "MaxPooling1D",
    "ParameterArena",
    "Sequential",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointError",
    "SGD",
    "Adam",
    "Optimizer",
    "RMSprop",
    "get_optimizer",
]
