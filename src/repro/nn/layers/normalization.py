"""Batch normalization (1-D / dense inputs).

Several CANDLE architectures offer batch normalization between dense
layers; implemented here with the standard training/inference split:
batch statistics + running-moment updates during training, running
moments at inference. The backward pass is the full batch-norm gradient
(including the dependence of the batch statistics on every sample).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.layers.base import Layer

__all__ = ["BatchNormalization"]


class BatchNormalization(Layer):
    """Normalize over the batch axis; learn per-feature gamma/beta.

    Works on flat ``(N, F)`` inputs and on sequence ``(N, L, C)``
    inputs (normalizing per channel over batch and length, Keras-style).
    """

    def __init__(self, momentum: float = 0.99, epsilon: float = 1e-3, name: Optional[str] = None):
        super().__init__(name=name)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.momentum = float(momentum)
        self.epsilon = float(epsilon)
        self._cache: tuple | None = None

    def build(self, input_shape, rng):
        features = input_shape[-1]
        self.add_param("gamma", np.ones(features))
        self.add_param("beta", np.zeros(features))
        # running moments are state, not trainable parameters; stored at
        # the layer dtype so a float32 model stays float32 at inference
        self.running_mean = np.zeros(features, dtype=self.dtype)
        self.running_var = np.ones(features, dtype=self.dtype)
        self.input_shape = tuple(input_shape)
        self.output_shape = tuple(input_shape)
        self.built = True

    def _axes(self, x: np.ndarray) -> tuple:
        return tuple(range(x.ndim - 1))  # all but the feature axis

    def forward(self, x, training=False):
        self._require_built()
        axes = self._axes(x)
        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            m = self.momentum
            self.running_mean = m * self.running_mean + (1 - m) * mean
            self.running_var = m * self.running_var + (1 - m) * var
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.epsilon)
        x_hat = (x - mean) * inv_std
        self._cache = (x_hat, inv_std, training, x.shape)
        return self.params["gamma"] * x_hat + self.params["beta"]

    def backward(self, dy, input_grad=True):
        x_hat, inv_std, training, shape = self._cache
        axes = self._axes(dy)
        self.set_grad("gamma", (dy * x_hat).sum(axis=axes))
        self.set_grad("beta", dy.sum(axis=axes))
        if not input_grad:
            return None
        g = self.params["gamma"]
        if not training:
            return dy * g * inv_std
        # full batch-norm gradient: statistics depend on every sample
        n = float(np.prod([shape[a] for a in axes]))
        dxhat = dy * g
        return (
            inv_std
            / n
            * (
                n * dxhat
                - dxhat.sum(axis=axes)
                - x_hat * (dxhat * x_hat).sum(axis=axes)
            )
        )
