"""Activation functions and their derivatives.

Every activation is a pair of vectorized functions:

- ``f(x, out=None)`` — the forward value.
- ``f_grad(x, y, out=None)`` — the elementwise derivative ``df/dx``. Every
  derivative here is a function of the output ``y`` alone and never
  reads ``x``, so a layer that activated in place (``f(z, out=z)``) and
  no longer has its pre-activation passes ``y`` for both.

``out=`` is NumPy's: the same ufuncs write into the given array (which
may be ``x`` itself) instead of a fresh one, bit for bit the same
values. Layers pass their work buffers so a training step allocates
nothing activation-sized.

``softmax`` is special-cased: its Jacobian is not elementwise, so models
pair it with categorical cross-entropy and use the fused
``softmax + cross-entropy`` gradient (see :mod:`repro.nn.losses`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["get", "ACTIVATIONS", "relu", "sigmoid", "tanh", "softmax", "linear"]


def linear(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Identity activation."""
    if out is None or out is x:
        return x
    np.copyto(out, x)
    return out


def _linear_grad(x, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    out = np.empty_like(y) if out is None else out
    out.fill(1.0)
    return out


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rectified linear unit: ``max(x, 0)``."""
    return np.maximum(x, 0.0, out=out)


def _relu_grad(x, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # y > 0 exactly where x > 0 (NaN and -0.0 included)
    return np.greater(y, 0.0, out=np.empty_like(y) if out is None else out)


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic sigmoid (dtype-preserving).

    ``1 / (1 + e^-x)`` for ``x >= 0`` and ``e^x / (1 + e^x)`` below, with
    no masked gather: ``t = e^-|x|`` is the exponential either branch
    takes, and the numerator is ``max(heaviside(x), t)`` — 1 where
    ``x >= 0`` (``t <= 1`` there), ``t`` where not. One array of ``x``'s
    size is allocated for ``t``.
    """
    t = np.abs(x).astype(np.result_type(x, np.float32), copy=False)
    np.negative(t, out=t)
    np.exp(t, out=t)
    if out is None:
        out = np.empty_like(t)
    np.heaviside(x, 1.0, out=out)
    np.maximum(out, t, out=out)
    t += 1.0
    return np.divide(out, t, out=out)


def _sigmoid_grad(x, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    out = np.subtract(1.0, y, out=out)
    return np.multiply(y, out, out=out)


def tanh(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Hyperbolic tangent."""
    return np.tanh(x, out=out)


def _tanh_grad(x, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    out = np.multiply(y, y, out=out)
    return np.subtract(1.0, out, out=out)


def softmax(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax over the last axis, shifted for stability."""
    out = np.subtract(x, np.max(x, axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    return np.divide(out, np.sum(out, axis=-1, keepdims=True), out=out)


def _softmax_grad(x, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # Elementwise surrogate; exact only when fused with cross-entropy.
    # Kept so an Activation('softmax') layer used standalone still trains
    # (diagonal of the softmax Jacobian).
    return _sigmoid_grad(x, y, out=out)


ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "linear": (linear, _linear_grad),
    "relu": (relu, _relu_grad),
    "sigmoid": (sigmoid, _sigmoid_grad),
    "tanh": (tanh, _tanh_grad),
    "softmax": (softmax, _softmax_grad),
}


def get(name: str) -> tuple[Callable, Callable]:
    """Look up ``(forward, grad)`` for an activation by Keras-style name.

    Raises ``ValueError`` for unknown names so typos fail fast.
    """
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; known: {sorted(ACTIVATIONS)}"
        ) from None
