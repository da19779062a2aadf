"""Evaluation metrics.

Plain functions ``metric(y_true, y_pred) -> float`` over NumPy arrays.
The paper reports *training accuracy* (Figs 6b, 9b, 10b, Table 6) and
*training loss* (Fig 8b); those map to :func:`categorical_accuracy` and
the model loss respectively.
"""

from __future__ import annotations

import numpy as np

__all__ = ["categorical_accuracy", "mae", "get"]


def categorical_accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of rows where the argmax class matches."""
    return float(
        np.mean(np.argmax(y_true, axis=-1) == np.argmax(y_pred, axis=-1))
    )


def mae(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean absolute error, in ``y_pred``'s dtype (as the losses)."""
    diff = np.subtract(y_pred, y_true, dtype=y_pred.dtype)
    return float(np.mean(np.abs(diff, out=diff)))


_METRICS = {
    "accuracy": categorical_accuracy,
    "mae": mae,
}


def get(name: str):
    """Resolve a metric function from a Keras-style name."""
    try:
        return _METRICS[name]
    except KeyError:
        raise ValueError(f"unknown metric {name!r}; known: {sorted(_METRICS)}") from None
