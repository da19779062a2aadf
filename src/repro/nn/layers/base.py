"""Layer base class.

A layer owns name-keyed parameter and gradient dicts. The contract:

- ``build(input_shape, rng)`` is called once with the per-example shape
  (no batch dim); it must set ``self.output_shape`` and may create
  parameters via :meth:`add_param`.
- ``forward(x, training)`` returns the activations and caches whatever
  the backward pass needs.
- ``backward(dy)`` consumes the upstream gradient, fills ``self.grads``
  for each parameter, and returns the gradient w.r.t. the input.
- A layer that owns parameters also accepts ``backward(dy,
  input_grad=False)``: fill ``self.grads`` exactly as above, skip the
  input gradient, return ``None``. The caller decides, never the layer:
  ``Sequential._backward`` passes it to ``layers[0]`` only, whose input
  is the data batch and whose gradient nobody reads; a direct
  ``layer.backward(dy)`` (gradcheck, the tests) always gets dx back.
  Parameterless layers have nothing but dx to compute and keep the
  one-argument form.

Shapes follow Keras convention: batch first, channels last.
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

import numpy as np

__all__ = ["Layer"]

_layer_counter = itertools.count()


class Layer:
    """Base class for all layers."""

    def __init__(self, name: Optional[str] = None):
        #: auto-named layers are renamed deterministically (by position)
        #: when the model builds, so SPMD ranks agree on parameter names
        self.auto_named = name is None
        self.name = name or f"{type(self).__name__.lower()}_{next(_layer_counter)}"
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        #: parameter storage dtype; Sequential.build overrides per-model
        self.dtype: np.dtype = np.dtype(np.float64)
        #: True once ParameterArena.adopt installed gradient views —
        #: set_grad then writes through instead of rebinding the dict
        self._arena_grads = False
        self._scratch: dict[str, np.ndarray] = {}
        self.input_shape: Optional[Tuple[int, ...]] = None
        self.output_shape: Optional[Tuple[int, ...]] = None
        self.built = False

    # -- lifecycle -------------------------------------------------------
    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        """Create parameters for ``input_shape`` (per-example, no batch)."""
        self.input_shape = tuple(input_shape)
        self.output_shape = tuple(input_shape)
        self.built = True

    def add_param(self, key: str, value: np.ndarray) -> np.ndarray:
        """Register a trainable parameter array under ``key``."""
        arr = np.asarray(value, dtype=self.dtype)
        self.params[key] = arr
        return arr

    def set_grad(self, key: str, value: np.ndarray) -> None:
        """Store a gradient, writing through to the arena view if installed."""
        if self._arena_grads:
            dst = self.grads.get(key)
            if dst is not None and dst.shape == np.shape(value):
                np.copyto(dst, value)
                return
        self.grads[key] = value

    def scratch(self, key: str, shape, dtype, zero: bool = True) -> np.ndarray:
        """A cached per-layer work buffer keyed by ``key``.

        Reallocated (zero-filled) when the requested shape or dtype
        changes — e.g. the short final batch of an epoch; otherwise the
        cached buffer is reused, re-zeroed only when ``zero`` is True.
        Callers that overwrite every element they read pass
        ``zero=False`` and skip the memset.
        """
        shape = tuple(shape)
        buf = self._scratch.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.zeros(shape, dtype=dtype)
            self._scratch[key] = buf
        elif zero:
            buf.fill(0.0)
        return buf

    # -- execution ---------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- bookkeeping -------------------------------------------------------
    def param_count(self) -> int:
        """Total number of trainable scalars in this layer."""
        return int(sum(p.size for p in self.params.values()))

    def regularization_penalty(self) -> float:
        """Extra loss contributed by this layer's regularizers (if any)."""
        return 0.0

    def _require_built(self) -> None:
        if not self.built:
            raise RuntimeError(
                f"layer {self.name!r} used before build(); add it to a model first"
            )

    def __repr__(self):
        return (
            f"<{type(self).__name__} {self.name!r} "
            f"in={self.input_shape} out={self.output_shape}>"
        )
