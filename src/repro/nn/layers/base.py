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

- What ``forward`` and ``backward`` return is **borrowed**: it lives in
  the layer's own work buffers (:meth:`Layer.scratch`) and is valid
  until that layer's next ``forward`` (``backward``). The next layer
  reads it and caches it by reference; anything that has to outlive
  the step is copied by whoever keeps it (``Sequential.predict`` copies
  every tile into the array it returns).
- ``workspace_row_bytes()`` is the layer's share of the model's memory
  plan: the bytes per example ``Sequential.predict`` sizes its row tile
  by, from the largest (see the method).

Shapes follow Keras convention: batch first, channels last.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Tuple

import numpy as np

from repro.nn.arena import DEFAULT_DTYPE

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
        self.dtype: np.dtype = DEFAULT_DTYPE
        #: True once ParameterArena.adopt installed gradient views —
        #: set_grad then writes through instead of rebinding the dict
        self._arena_grads = False
        self._scratch: dict[str, np.ndarray] = {}
        #: transient-buffer pool; Sequential.build points every layer of
        #: a model at one shared dict
        self._shared: dict[str, np.ndarray] = {}
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
        """A per-layer work buffer keyed by ``key``, sized by capacity.

        The buffer keeps the largest leading dimension (batch rows) it
        was ever asked for and hands out the contiguous ``buf[:n]`` view,
        so the short last batch of an epoch, or the short last tile of a
        ``predict``, neither reallocates nor disturbs the rows beyond it.
        It is reallocated (zero-filled) only to grow, or when the
        per-row shape or dtype changes. ``zero`` re-zeroes the view
        handed out; callers that overwrite every element they read pass
        ``zero=False`` and skip the memset (a fresh buffer is zero
        either way, which is what the padded-margin buffers rely on).
        """
        shape = tuple(shape)
        buf = self._scratch.get(key)
        if (
            buf is None
            or len(buf) < shape[0]
            or buf.shape[1:] != shape[1:]
            or buf.dtype != dtype
        ):
            buf = self._scratch[key] = np.zeros(shape, dtype=dtype)
            return buf
        view = buf[: shape[0]]
        if zero:
            view.fill(0)
        return view

    def workspace(self, slot: str, shape, dtype) -> np.ndarray:
        """A transient buffer from the pool shared by the model's layers.

        For operands that die inside the call that gathers them — the
        Conv1D window blocks and dW gather, several times the size of
        any activation. One flat capacity-sized block per ``slot``
        serves every layer in turn, so the model holds one of each, not
        one per layer. Contents are undefined on return.
        """
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        block = self._shared.get(slot)
        if block is None or block.nbytes < nbytes:
            block = self._shared[slot] = np.empty(nbytes, dtype=np.uint8)
        return block[:nbytes].view(dtype).reshape(shape)

    def _backprop_activation(
        self, dy: np.ndarray, y: np.ndarray, dz: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``dy * f'(y)``, for layers with an activation
        (``self._act_grad``), in ``dz``: the :meth:`_dz_buffer` by
        default, or rows of it a layer obtained before splitting its
        batch (with the same rows of ``dy`` and ``y``)."""
        if dz is None:
            dz = self._dz_buffer(dy, y)
        if dz.dtype != y.dtype:
            # mixed precision: f' in y's dtype, the product in numpy's
            # promotion of the two
            return np.multiply(dy, self._act_grad(y, y), out=dz)
        self._act_grad(y, y, out=dz)
        return np.multiply(dy, dz, out=dz)

    def _dz_buffer(self, dy: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Where :meth:`_backprop_activation` leaves ``dy * f'(y)``."""
        return self.scratch("dz", y.shape, np.result_type(dy, y), zero=False)

    def workspace_row_bytes(self) -> int:
        """Bytes per example ``Sequential.predict`` prices this layer at
        (default: the output row, the largest buffer an inference
        forward fills).

        A windowed layer prices its window row, though ``Conv1D`` now
        streams its forward windows through a fixed block: that is the
        unit the ``WORKSPACE_BYTES`` sweep was taken in. Priced at its
        output row instead, ``Conv1D`` made NT3's ``predict`` tiles 4.4×
        larger and the ``nt3_train`` benchmark's in-process peak 220 MB,
        against 182.5 MB at the window-row price (2-vCPU x86 VM).
        """
        return math.prod(self.output_shape) * self.dtype.itemsize

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
