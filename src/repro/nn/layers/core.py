"""Core layers: Dense, Dropout, Activation, Flatten.

These four plus the conv/pooling layers in
:mod:`repro.nn.layers.conv` cover every architecture in the CANDLE P1
suite (NT3's 1-D CNN and the three MLPs).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import activations as _act
from repro.nn.initializers import glorot_uniform
from repro.nn.layers.base import Layer

__all__ = ["Dense", "Dropout", "Activation", "Flatten"]


class Dense(Layer):
    """Fully connected layer: ``y = activation(x @ kernel + bias)``.

    Accepts an optional fused ``activation`` (Keras-style) and an optional
    kernel regularizer (used by P1B2).
    """

    def __init__(
        self,
        units: int,
        activation: Optional[str] = None,
        kernel_regularizer=None,
        use_bias: bool = True,
        name: Optional[str] = None,
    ):
        super().__init__(name=name)
        if units <= 0:
            raise ValueError(f"units must be positive, got {units}")
        self.units = int(units)
        self.activation_name = activation
        self._act_fn, self._act_grad = (
            _act.get(activation) if activation else (None, None)
        )
        self.kernel_regularizer = kernel_regularizer
        self.use_bias = bool(use_bias)
        self._cache: tuple | None = None

    def build(self, input_shape, rng):
        if len(input_shape) != 1:
            raise ValueError(
                f"Dense expects flat input, got shape {input_shape}; "
                "add a Flatten layer first"
            )
        self.add_param("kernel", glorot_uniform((input_shape[0], self.units), rng))
        if self.use_bias:
            self.add_param("bias", np.zeros(self.units))
        self.input_shape = tuple(input_shape)
        self.output_shape = (self.units,)
        self.built = True

    def forward(self, x, training=False):
        self._require_built()
        kernel = self.params["kernel"]
        y = self.scratch(
            "y", (len(x), self.units), np.result_type(x, kernel), zero=False
        )
        np.matmul(x, kernel, out=y)
        if self.use_bias:
            y += self.params["bias"]
        if self._act_fn is not None:
            self._act_fn(y, out=y)
        self._cache = (x, y)
        return y

    def backward(self, dy, input_grad=True):
        x, y = self._cache
        if self._act_fn is not None:
            dy = self._backprop_activation(dy, y)
        dst = self.grads.get("kernel") if self._arena_grads else None
        if (
            dst is not None
            and self.kernel_regularizer is None
            and dst.dtype == np.result_type(x, dy)
        ):
            np.matmul(x.T, dy, out=dst)  # straight into the arena slab
        else:
            dk = x.T @ dy
            if self.kernel_regularizer is not None:
                dk += self.kernel_regularizer.grad(self.params["kernel"])
            self.set_grad("kernel", dk)
        if self.use_bias:
            bdst = self.grads.get("bias") if self._arena_grads else None
            if bdst is not None and bdst.dtype == dy.dtype:
                np.sum(dy, axis=0, out=bdst)
            else:
                self.set_grad("bias", dy.sum(axis=0))
        if not input_grad:
            return None
        kernel = self.params["kernel"]
        dx = self.scratch(
            "dx", (len(dy), kernel.shape[0]), np.result_type(dy, kernel), zero=False
        )
        return np.matmul(dy, kernel.T, out=dx)

    def backward_from_logits(self, dz: np.ndarray, input_grad: bool = True):
        """Backward given a gradient w.r.t. the pre-activation logits.

        Used by ``Sequential`` for the fused softmax+cross-entropy
        gradient; skips the activation-derivative product.
        """
        saved = self._act_fn, self._act_grad
        self._act_fn = self._act_grad = None
        try:
            return self.backward(dz, input_grad=input_grad)
        finally:
            self._act_fn, self._act_grad = saved

    def regularization_penalty(self):
        if self.kernel_regularizer is None or not self.built:
            return 0.0
        return self.kernel_regularizer.penalty(self.params["kernel"])


class Dropout(Layer):
    """Inverted dropout: active only when ``training=True``.

    The mask is drawn from the layer's own Generator, seeded at build
    time from the model RNG, so SPMD ranks can be given distinct dropout
    streams while weight init stays broadcast-consistent.
    """

    def __init__(self, rate: float, name: Optional[str] = None):
        super().__init__(name=name)
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self._rng: np.random.Generator | None = None
        self._mask: np.ndarray | None = None

    def build(self, input_shape, rng):
        super().build(input_shape, rng)
        self._rng = np.random.default_rng(rng.integers(0, 2**63 - 1))

    def forward(self, x, training=False):
        self._require_built()
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        # draw in float64 (keeps the mask stream identical across model
        # dtypes), then cast so a float32 model stays float32 end to end
        dtype = np.result_type(x, np.float32)
        draw = self.scratch("draw", x.shape, np.float64, zero=False)
        self._rng.random(out=draw)
        mask = self.scratch("mask", x.shape, dtype, zero=False)
        np.less(draw, keep, out=mask)
        self._mask = np.divide(mask, keep, out=mask)
        return np.multiply(x, mask, out=self.scratch("y", x.shape, dtype, zero=False))

    def backward(self, dy):
        if self._mask is None:
            return dy
        # a buffer only when it has the dtype numpy would promote to
        same = dy.dtype == self._mask.dtype
        dx = self.scratch("dx", dy.shape, dy.dtype, zero=False) if same else None
        return np.multiply(dy, self._mask, out=dx)


class Activation(Layer):
    """Standalone activation layer (e.g. ``Activation('softmax')``).

    ``Sequential`` detects a trailing softmax Activation and fuses its
    gradient with categorical cross-entropy for exactness.
    """

    def __init__(self, activation: str, name: Optional[str] = None):
        super().__init__(name=name)
        self.activation_name = activation
        self._act_fn, self._act_grad = _act.get(activation)
        self._cache: tuple | None = None

    @property
    def is_softmax(self) -> bool:
        return self.activation_name == "softmax"

    def forward(self, x, training=False):
        self._require_built()
        floating = x.dtype.kind == "f"
        out = self.scratch("y", x.shape, x.dtype, zero=False) if floating else None
        y = self._act_fn(x, out=out)
        self._cache = (x, y)
        return y

    def backward(self, dy):
        _, y = self._cache
        return self._backprop_activation(dy, y)


class Flatten(Layer):
    """Collapse all per-example dims into one (NT3: conv stack → dense)."""

    def __init__(self, name: Optional[str] = None):
        super().__init__(name=name)
        self._batch_shape: Tuple[int, ...] | None = None

    def build(self, input_shape, rng):
        self.input_shape = tuple(input_shape)
        self.output_shape = (int(np.prod(input_shape)),)
        self.built = True

    def forward(self, x, training=False):
        self._require_built()
        self._batch_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy):
        return dy.reshape(self._batch_shape)
