"""Metrics."""

import numpy as np
import pytest

from repro.nn import losses, metrics


def test_categorical_accuracy_perfect_and_zero():
    y = np.eye(3)[[0, 1, 2]]
    assert metrics.categorical_accuracy(y, y) == 1.0
    wrong = np.eye(3)[[1, 2, 0]]
    assert metrics.categorical_accuracy(y, wrong) == 0.0


def test_categorical_accuracy_partial():
    y = np.eye(2)[[0, 0, 1, 1]]
    pred = np.eye(2)[[0, 1, 1, 0]]
    assert metrics.categorical_accuracy(y, pred) == 0.5


def test_mae_mse():
    y = np.zeros(4)
    p = np.array([1.0, -1.0, 2.0, -2.0])
    assert metrics.mae(y, p) == pytest.approx(1.5)
    # an MSE is the model's loss, not a metric of its own
    assert losses.get("mse").value(y, p) == pytest.approx(2.5)


def test_get_resolves_names():
    assert metrics.get("accuracy") is metrics.categorical_accuracy
    assert metrics.get("mae") is metrics.mae
    with pytest.raises(ValueError):
        metrics.get("f1_macro")
