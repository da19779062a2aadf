"""Losses: values, gradients vs finite differences, fused softmax path."""

import numpy as np
import pytest

from repro.nn import losses
from repro.nn.activations import softmax


def _numeric_grad(loss, y_true, y_pred, eps=1e-6):
    g = np.zeros_like(y_pred)
    flat = y_pred.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = loss.value(y_true, y_pred)
        flat[i] = orig - eps
        minus = loss.value(y_true, y_pred)
        flat[i] = orig
        gflat[i] = (plus - minus) / (2 * eps)
    return g


def test_mse_value():
    loss = losses.get("mse")
    assert loss.value(np.zeros((2, 2)), np.ones((2, 2))) == pytest.approx(1.0)


def test_mse_grad_matches_numeric(rng):
    loss = losses.get("mse")
    y, p = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    assert np.allclose(loss.grad(y, p), _numeric_grad(loss, y, p), atol=1e-6)


def test_categorical_crossentropy_perfect_prediction_near_zero():
    loss = losses.get("categorical_crossentropy")
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert loss.value(y, y) == pytest.approx(0.0, abs=1e-9)


def test_categorical_crossentropy_grad_matches_numeric(rng):
    loss = losses.get("categorical_crossentropy")
    y = np.eye(3)[rng.integers(0, 3, size=5)]
    p = softmax(rng.normal(size=(5, 3)))
    assert np.allclose(loss.grad(y, p), _numeric_grad(loss, y, p), atol=1e-5)


def test_fused_softmax_grad_equals_chain_rule(rng):
    """d(CE o softmax)/dz computed two ways must agree."""
    loss = losses.CategoricalCrossentropy()
    z = rng.normal(size=(6, 4))
    y = np.eye(4)[rng.integers(0, 4, size=6)]
    fused = loss.fused_softmax_grad(y, softmax(z))

    eps = 1e-6
    numeric = np.zeros_like(z)
    for i in range(z.size):
        flat = z.reshape(-1)
        orig = flat[i]
        flat[i] = orig + eps
        plus = loss.value(y, softmax(z))
        flat[i] = orig - eps
        minus = loss.value(y, softmax(z))
        flat[i] = orig
        numeric.reshape(-1)[i] = (plus - minus) / (2 * eps)
    assert np.allclose(fused, numeric, atol=1e-5)


def test_crossentropy_clips_zero_probabilities():
    loss = losses.get("categorical_crossentropy")
    y = np.array([[1.0, 0.0]])
    p = np.array([[0.0, 1.0]])  # totally wrong, p=0 on the true class
    assert np.isfinite(loss.value(y, p))


def test_get_passes_instances_through():
    inst = losses.MeanSquaredError()
    assert losses.get(inst) is inst


def test_get_unknown_raises():
    with pytest.raises(ValueError, match="unknown loss"):
        losses.get("hinge-ish")
