"""Loss functions with analytic gradients.

Each loss is a class with ``value(y_true, y_pred)`` returning the scalar
mean loss over the batch and ``grad(y_true, y_pred)`` returning
``dL/dy_pred`` already divided by the batch size, so layer backward
passes can accumulate per-example gradients with plain matmuls.

``CategoricalCrossentropy`` supports the fused softmax gradient: when the
model's last activation is softmax, the combined gradient is simply
``(y_pred - y_true)/N``, which is both faster and numerically exact.

Every loss computes in ``y_pred``'s dtype, the model's: a ``y_true`` of
another dtype (``evaluate``'s float64 targets) is cast element by
element inside each ufunc (``dtype=``), never copied whole, and gives
the bits it would give cast first. ``value``, ``grad`` and
``fused_softmax_grad`` take an optional ``out``: an array of
``y_pred``'s shape and dtype, which the same ufuncs write into instead
of allocating.
``grad`` returns it; ``value`` only works in it (an autoencoder's
``y_pred - y_true`` is as large as the input batch). ``Sequential``
passes one buffer to both, value first.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Loss",
    "MeanSquaredError",
    "CategoricalCrossentropy",
    "get",
]

_EPS = 1e-12


class Loss:
    """Base class for losses."""

    name = "loss"

    def value(self, y_true: np.ndarray, y_pred: np.ndarray, out=None) -> float:
        raise NotImplementedError

    def grad(self, y_true: np.ndarray, y_pred: np.ndarray, out=None) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, y_true: np.ndarray, y_pred: np.ndarray) -> float:
        return self.value(y_true, y_pred)


class MeanSquaredError(Loss):
    """MSE averaged over every element in the batch."""

    name = "mse"

    def value(self, y_true, y_pred, out=None):
        diff = np.subtract(y_pred, y_true, out=out, dtype=y_pred.dtype)
        return float(np.mean(np.multiply(diff, diff, out=diff)))

    def grad(self, y_true, y_pred, out=None):
        out = np.subtract(y_pred, y_true, out=out, dtype=y_pred.dtype)
        np.multiply(2.0, out, out=out)
        return np.divide(out, y_pred.size, out=out)


class CategoricalCrossentropy(Loss):
    """Cross-entropy against one-hot (or soft) targets.

    ``fused_softmax_grad`` is used by ``Sequential`` when the final layer
    activation is softmax: it returns the exact combined gradient of
    softmax followed by cross-entropy.
    """

    name = "categorical_crossentropy"

    def value(self, y_true, y_pred, out=None):
        p = np.clip(y_pred, _EPS, 1.0, out=out)
        np.log(p, out=p)
        return float(-np.sum(np.multiply(y_true, p, out=p, dtype=p.dtype)) / y_true.shape[0])

    def grad(self, y_true, y_pred, out=None):
        out = np.clip(y_pred, _EPS, 1.0, out=out)
        np.divide(y_true, out, out=out, dtype=out.dtype)
        np.negative(out, out=out)
        return np.divide(out, y_true.shape[0], out=out)

    @staticmethod
    def fused_softmax_grad(y_true, y_pred, out=None):
        """Gradient of CE∘softmax w.r.t. the softmax *input* logits."""
        out = np.subtract(y_pred, y_true, out=out, dtype=y_pred.dtype)
        return np.divide(out, y_true.shape[0], out=out)


_LOSSES = {
    "mse": MeanSquaredError,
    "categorical_crossentropy": CategoricalCrossentropy,
}


def get(name_or_loss) -> Loss:
    """Resolve a loss instance from a name or pass an instance through."""
    if isinstance(name_or_loss, Loss):
        return name_or_loss
    try:
        return _LOSSES[name_or_loss]()
    except KeyError:
        raise ValueError(
            f"unknown loss {name_or_loss!r}; known: {sorted(_LOSSES)}"
        ) from None
