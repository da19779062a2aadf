"""Activation functions: values, derivatives, stability."""

import numpy as np
import pytest

from repro.nn import activations


@pytest.mark.parametrize("name", sorted(activations.ACTIVATIONS))
def test_forward_shapes_preserved(name, rng):
    fn, _ = activations.get(name)
    x = rng.normal(size=(5, 7))
    assert fn(x).shape == x.shape


@pytest.mark.parametrize("name", ["relu", "sigmoid", "tanh"])
def test_elementwise_grad_matches_finite_difference(name, rng):
    fn, grad = activations.get(name)
    x = rng.normal(size=64) + 0.05  # nudge off relu's kink
    y = fn(x)
    eps = 1e-6
    numeric = (fn(x + eps) - fn(x - eps)) / (2 * eps)
    assert np.allclose(grad(x, y), numeric, atol=1e-6)


def test_relu_clamps_negatives():
    x = np.array([-3.0, -0.1, 0.0, 0.1, 5.0])
    assert np.array_equal(activations.relu(x), [0, 0, 0, 0.1, 5.0])


def test_sigmoid_extreme_inputs_are_stable():
    x = np.array([-1000.0, -50.0, 0.0, 50.0, 1000.0])
    y = activations.sigmoid(x)
    assert np.all(np.isfinite(y))
    assert y[0] == pytest.approx(0.0, abs=1e-12)
    assert y[-1] == pytest.approx(1.0, abs=1e-12)
    assert y[2] == pytest.approx(0.5)


def test_softmax_rows_sum_to_one(rng):
    x = rng.normal(size=(8, 5)) * 30
    y = activations.softmax(x)
    assert np.allclose(y.sum(axis=1), 1.0)
    assert np.all(y >= 0)


def test_softmax_shift_invariant(rng):
    x = rng.normal(size=(4, 6))
    assert np.allclose(activations.softmax(x), activations.softmax(x + 123.0))


def test_softmax_extreme_logits_no_overflow():
    x = np.array([[1e4, -1e4, 0.0]])
    y = activations.softmax(x)
    assert np.all(np.isfinite(y))
    assert y[0, 0] == pytest.approx(1.0)


def test_unknown_activation_raises():
    with pytest.raises(ValueError, match="unknown activation"):
        activations.get("swoosh")


def test_tanh_grad_uses_output(rng):
    x = rng.normal(size=10)
    y = activations.tanh(x)
    _, grad = activations.get("tanh")
    assert np.allclose(grad(x, y), 1 - y**2)
