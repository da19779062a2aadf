"""Float32 hygiene: no silent float64 promotion in forward/backward.

A float32-built model must stay float32 end to end — activations,
gradients, parameter updates, predictions. Any stray float64 temporary
doubles the training step's memory traffic and silently halves the
speedup the flat-arena path exists to provide.
"""

import numpy as np
import pytest

from repro.nn import (
    Activation,
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    LocallyConnected1D,
    MaxPooling1D,
    Sequential,
)
from repro.nn import activations


F32 = np.float32


def _build(layers, input_shape):
    from repro.train import TrainOptions

    model = Sequential(layers)
    model.build(input_shape, seed=0, train=TrainOptions(dtype="float32"))
    return model


SEQ_STACKS = {
    "conv": ([Conv1D(4, 3, activation="relu")], (16, 1)),
    "maxpool": ([MaxPooling1D(2)], (16, 2)),
    "local": ([LocallyConnected1D(3, 3)], (16, 2)),
    "dense": ([Dense(8, activation="relu")], (12,)),
    "dense_sigmoid": ([Dense(8, activation="sigmoid")], (12,)),
    "dense_tanh": ([Dense(8, activation="tanh")], (12,)),
    "dropout": ([Dropout(0.4)], (12,)),
    "softmax": ([Activation("softmax")], (6,)),
    "flatten": ([Flatten()], (4, 3)),
}


@pytest.mark.parametrize("key", sorted(SEQ_STACKS))
def test_layer_forward_backward_stay_float32(key, rng):
    layers, shape = SEQ_STACKS[key]
    model = _build(layers, shape)
    x = rng.normal(size=(8,) + shape).astype(F32)
    y = model._forward(x, training=True)
    assert y.dtype == F32, f"{key}: forward promoted to {y.dtype}"
    dy = rng.normal(size=y.shape).astype(F32)
    grad = dy
    for layer in reversed(model.layers):
        grad = layer.backward(grad)
        assert grad.dtype == F32, f"{key}/{layer.name}: backward → {grad.dtype}"
    for layer in model.layers:
        for pkey, g in layer.grads.items():
            assert g.dtype == F32, f"{key}/{layer.name}/{pkey}: grad {g.dtype}"


def test_full_train_step_stays_float32(rng):
    model = _build(
        [
            Conv1D(4, 3, activation="relu"),
            MaxPooling1D(2),
            Flatten(),
            Dense(16, activation="relu"),
            Dropout(0.1),
            Dense(3),
            Activation("softmax"),
        ],
        (24, 1),
    )
    model.compile("sgd", "categorical_crossentropy", metrics=["accuracy"], lr=0.05)
    x = rng.normal(size=(16, 24, 1)).astype(F32)
    y = np.eye(3, dtype=F32)[rng.integers(0, 3, size=16)]
    assert model.arena.dtype == F32
    assert model.arena.params_flat.dtype == F32
    model.train_on_batch(x, y)
    for name, p in model.named_parameters().items():
        assert p.dtype == F32, name
    for layer in model.layers:
        for pkey, g in layer.grads.items():
            assert g.dtype == F32, f"{layer.name}/{pkey}"
    for slots in model.optimizer._state.values():
        for slot, arr in slots.items():
            assert arr.dtype == F32, slot
    assert model.predict(x).dtype == F32


def test_activation_functions_preserve_float32(rng):
    x = rng.normal(size=64).astype(F32)
    for name, (fn, grad) in activations.ACTIVATIONS.items():
        y = fn(x)
        assert y.dtype == F32, f"{name} forward"
        assert grad(x, y).dtype == F32, f"{name} grad"


def test_default_build_stays_float64(rng):
    """The seed-default precision is untouched: float64 unless asked."""
    model = Sequential([Dense(4)])
    model.build((3,), seed=0)
    assert model.dtype == np.float64
    for p in model.named_parameters().values():
        assert p.dtype == np.float64
