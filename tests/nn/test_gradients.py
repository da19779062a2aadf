"""Analytic gradients vs central finite differences, per architecture.

The correctness gate for the autodiff stack: every layer type, fused
and unfused loss paths, and regularizers. Central differences at
``eps = 1e-6`` need float64, so every model here names it.
"""

import numpy as np
import pytest

from repro.nn import (
    Activation,
    Conv1D,
    Dense,
    Flatten,
    LocallyConnected1D,
    MaxPooling1D,
    Sequential,
    regularizers,
)
from repro.train import TrainOptions
from repro.nn.gradcheck import (
    max_relative_error,
    numeric_input_grad,
    numeric_param_grads,
)

TOL = 1e-5


def _check_params(layers, in_shape, loss, y, seed=3):
    model = Sequential(layers)
    model.build(in_shape, seed=seed, train=TrainOptions(dtype="float64"))
    model.compile("sgd", loss, lr=0.01)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4,) + in_shape)
    y_pred = model._forward(x, training=False)
    model._backward(y, y_pred)
    analytic = {k: v.copy() for k, v in model.named_gradients().items()}
    numeric = numeric_param_grads(model, x, y)
    for name in numeric:
        err = max_relative_error(analytic[name], numeric[name])
        assert err < TOL, f"{name}: rel err {err}"
    return model, x


@pytest.fixture
def y3(rng):
    return np.eye(3)[rng.integers(0, 3, size=4)]


@pytest.fixture
def yreg(rng):
    return rng.normal(size=(4, 1))


def test_dense_tanh_mse(yreg):
    _check_params([Dense(5, activation="tanh"), Dense(1)], (7,), "mse", yreg)


def test_softmax_activation_layer_fused(y3):
    _check_params(
        [Dense(8, activation="tanh"), Dense(3), Activation("softmax")],
        (6,),
        "categorical_crossentropy",
        y3,
    )


def test_dense_softmax_fused(y3):
    _check_params(
        [Dense(8, activation="tanh"), Dense(3, activation="softmax")],
        (6,),
        "categorical_crossentropy",
        y3,
    )


def test_conv_pool_stack(y3):
    _check_params(
        [
            Conv1D(3, 3, activation="tanh"),
            MaxPooling1D(2),
            Conv1D(2, 2, activation="sigmoid"),
            Flatten(),
            Dense(3),
            Activation("softmax"),
        ],
        (12, 2),
        "categorical_crossentropy",
        y3,
    )


def test_conv_same_padding(yreg):
    _check_params(
        [Conv1D(2, 4, padding="same", activation="tanh"), Flatten(), Dense(1)],
        (9, 1),
        "mse",
        yreg,
    )


def test_locally_connected(yreg):
    _check_params(
        [LocallyConnected1D(2, 3, activation="tanh"), Flatten(), Dense(1)],
        (8, 2),
        "mse",
        yreg,
    )


def test_l2_regularizer_in_gradient(yreg):
    _check_params(
        [Dense(4, activation="tanh", kernel_regularizer=regularizers.l2(0.05)), Dense(1)],
        (5,),
        "mse",
        yreg,
    )


def test_input_gradient_through_conv(yreg):
    model, x = _check_params(
        [Conv1D(2, 3, activation="tanh"), Flatten(), Dense(1)], (8, 1), "mse", yreg
    )
    y_pred = model._forward(x, training=False)
    model._backward(yreg, y_pred)
    # input gradient: re-run backward capturing the return value
    grad = model.loss.grad(yreg, y_pred)
    for layer in reversed(model.layers):
        grad = layer.backward(grad)
    numeric = numeric_input_grad(model, x, yreg)
    assert max_relative_error(grad, numeric) < TOL
