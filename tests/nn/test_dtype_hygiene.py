"""Float32 hygiene: no silent float64 promotion in forward/backward.

A float32-built model must stay float32 end to end — activations,
gradients, parameter updates, predictions. Any stray float64 temporary
doubles the training step's memory traffic and silently halves the
speedup the flat-arena path exists to provide. The loaders hand over
float64 rows (views of a frame or a cache mapping); the model casts them
at its input, a batch or a ``predict`` tile at a time, and makes no copy
of the dataset.
"""

import math
import tracemalloc

import numpy as np
import pytest

from repro.nn import (
    DEFAULT_DTYPE,
    Activation,
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    LocallyConnected1D,
    MaxPooling1D,
    Sequential,
)
from repro.nn import activations, models
from repro.train import TrainOptions


F32 = np.float32


def _build(layers, input_shape):
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


def test_default_build_is_float32(rng):
    """The default precision is ``repro.nn.DEFAULT_DTYPE``, float32 (the
    paper's Keras ``floatx``); float64 is there by name."""
    model = Sequential([Dense(4)])
    model.build((3,), seed=0)
    assert DEFAULT_DTYPE == F32
    assert model.dtype == F32 and model.arena.dtype == F32
    for p in model.named_parameters().values():
        assert p.dtype == F32
    named = Sequential([Dense(4)])
    named.build((3,), seed=0, train=TrainOptions(dtype="float64"))
    assert named.arena.params_flat.dtype == np.float64


# ---------------------------------------------------------------------------
# the loaders' float64 rows: cast at the model's input, a batch at a time
# ---------------------------------------------------------------------------

ROWS = 4000


def _loader_rows(tmp_path, rng, shape):
    """``ROWS`` float64 rows of ``shape`` as a cache hit hands them over:
    a read-only ``np.memmap`` of the file."""
    path = tmp_path / "x.f64"
    rng.normal(size=(ROWS,) + shape).tofile(path)
    return np.memmap(path, dtype=np.float64, mode="r", shape=(ROWS,) + shape)


def _conv_classifier():
    layers = [
        Conv1D(4, 5, activation="relu"),
        MaxPooling1D(2),
        Flatten(),
        Dense(8, activation="relu"),
        Dropout(0.1),
        Dense(2),
        Activation("softmax"),
    ]
    return layers, (1000, 1), "categorical_crossentropy", ["accuracy"]


def _dense_autoencoder():
    """P1B1's shape: the targets are the inputs."""
    return [Dense(32, activation="relu"), Dense(400)], (400,), "mse", []


def _loaded(tmp_path, rng, case):
    """A default-dtype model of ``case`` and float64 loader rows for it."""
    layers, shape, loss, metrics = case()
    model = Sequential(layers)
    model.build(shape, seed=0)
    model.compile("adam", loss, metrics=metrics)
    x = _loader_rows(tmp_path, rng, shape)
    y = x if loss == "mse" else np.eye(2)[rng.integers(0, 2, size=ROWS)]
    return model, x, y


def _record_dtypes(model) -> list:
    """Wrap every layer's forward and backward to log ``(where, dtype)``
    of what each reads and returns."""
    seen = []

    def wrap(layer, kind, fn):
        def call(a, *args, **kwargs):
            seen.append((f"{layer.name}.{kind} in", a.dtype))
            out = fn(a, *args, **kwargs)
            if out is not None:
                seen.append((f"{layer.name}.{kind} out", out.dtype))
            return out

        return call

    for layer in model.layers:
        layer.forward = wrap(layer, "forward", layer.forward)
        layer.backward = wrap(layer, "backward", layer.backward)
    return seen


@pytest.mark.parametrize("case", [_conv_classifier, _dense_autoencoder], ids=["conv", "autoencoder"])
def test_float64_loader_rows_train_in_float32(case, tmp_path, rng):
    """Fed the loaders' float64 rows (a read-only mapping), a default
    model computes in float32 in every layer, forward and backward,
    through ``fit``, ``evaluate`` and ``predict``: the cast is at its
    input, not left to the first GEMM's type promotion."""
    model, x, y = _loaded(tmp_path, rng, case)
    seen = _record_dtypes(model)
    model.fit(x, y, batch_size=32, epochs=1, validation_data=(x[:100], y[:100]))
    model.evaluate(x, y)
    out = model.predict(x)
    assert seen and [entry for entry in seen if entry[1] != F32] == []
    assert out.dtype == F32
    for slab in (model.arena.params_flat, model.arena.grads_flat):
        assert slab.dtype == F32
    for slab in model.optimizer.arena_state_slabs():
        assert slab.dtype == F32


@pytest.mark.parametrize("case", [_conv_classifier, _dense_autoencoder], ids=["conv", "autoencoder"])
def test_float64_loader_rows_cost_no_dataset_sized_array(case, tmp_path, rng, monkeypatch):
    """No call makes a float32 (or float64) copy of the dataset: past
    the predictions ``predict`` must return, ``fit``, ``evaluate`` and
    ``predict`` each peak under half of a float32 copy of ``x``.
    ``evaluate`` casts no targets whole (an autoencoder's are ``x``)."""
    monkeypatch.setattr(models, "WORKSPACE_BYTES", 1 << 20)  # small tiles
    model, x, y = _loaded(tmp_path, rng, case)
    out_bytes = ROWS * math.prod(model.layers[-1].output_shape) * F32().itemsize
    budget = x.size * F32().itemsize // 2
    calls = {
        "fit": lambda: model.fit(x, y, batch_size=32, epochs=1),
        "evaluate": lambda: model.evaluate(x, y),
        "predict": lambda: model.predict(x),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra = peak - (0 if name == "fit" else out_bytes)
        assert extra < budget, (name, peak, budget)
