"""1-D convolutional, pooling, and locally connected layers.

NT3 is "a 1D convolutional network … multiple 1D convolutional layers
interleaved with pooling layers followed by final dense layers"; P1B3
uses "convolution-like" (locally connected) layers. No pass loops over
the batch or the sequence (see the HPC guide's vectorization rules);
the only Python loops are over kernel or pooling taps
(``LocallyConnected1D``'s input-gradient scatter, ``MaxPooling1D``'s
running maximum).

``Conv1D`` is three GEMMs, each one ``np.dot`` of a window matrix with
a reshaped kernel or gradient — the very call, on the very operand
layouts, that ``np.tensordot`` over a ``sliding_window_view`` ends in,
so every result is bit for bit what that formulation gives
(``tests/nn/test_conv_reference.py`` keeps it as the oracle). What this
module owns is how the window matrix is gathered: in contiguous runs
(:func:`_im2col`, :func:`_im2col_t`), not by ``tensordot``'s generic
copy of a strided 4-D view, and into the one ``cols`` block of the
model's shared workspace (:meth:`Layer.workspace`) rather than a fresh
array per gather. No layer keeps a window matrix: forward and dW want
different layouts (``cols.T @ dy`` on a kept forward matrix is a
transposed-operand GEMM, which BLAS does not sum in the same order),
and one kept per layer would be the largest live arrays in the process
— the shared block is as large as the largest single gather and
``Sequential.predict`` bounds that by tiling rows.

Outputs, padded inputs and gradients live in per-layer
:meth:`Layer.scratch` buffers and are written with ``out=``, so a
warmed training step allocates nothing activation-sized; bias and
activation are applied to the GEMM's output in place, and the cache is
``(xp, y)`` — every activation derivative is a function of ``y``.

Layout is Keras channels-last: ``(batch, steps, channels)``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn import activations as _act
from repro.nn import initializers as _init
from repro.nn.layers.base import Layer

__all__ = [
    "Conv1D",
    "MaxPooling1D",
    "AveragePooling1D",
    "GlobalMaxPooling1D",
    "LocallyConnected1D",
]


def _im2col(xp: np.ndarray, k: int, workspace) -> np.ndarray:
    """``(N, Lp, C)`` → C-contiguous ``(N·L, k·C)``, ``L = Lp - k + 1``,
    gathered into ``workspace``'s ``cols`` block.

    Row ``(n, l)`` is the window ``xp[n, l : l + k, :]`` flattened in
    (tap, channel) order — already ``k·C`` consecutive scalars of a
    contiguous ``xp``, so the gather is one run per row.
    """
    n, lp, c = xp.shape
    out_steps = lp - k + 1
    # windows of k·C scalars over the flattened (steps, channels) axis,
    # one every C scalars
    win = sliding_window_view(xp.reshape(n, lp * c), k * c, axis=1)[:, ::c]
    cols = workspace("cols", (n, out_steps, k * c), xp.dtype)
    np.copyto(cols, win)
    return cols.reshape(n * out_steps, k * c)


def _im2col_t(xp: np.ndarray, k: int, workspace) -> np.ndarray:
    """``(N, Lp, C)`` → C-contiguous ``(C·k, N·L)``: :func:`_im2col`
    transposed, rows in (channel, tap) order.

    Row ``(c, tap)`` is channel ``c`` shifted by ``tap`` steps. The input
    goes channel-first (``workspace``'s ``xt`` block) before the gather
    so that each row is copied in runs of ``L`` instead of one scalar
    every ``C``.
    """
    n, lp, c = xp.shape
    out_steps = lp - k + 1
    if k == 1 or out_steps == 1:
        # Nothing overlaps, so there is nothing to gather: numpy reshapes
        # the window view in place where it can, and the GEMM then reads
        # xp transposed — a different (equally valid) order of summation
        # from a gathered copy, and the one the oracle has.
        return sliding_window_view(xp, k, axis=1).transpose(2, 3, 0, 1).reshape(c * k, -1)
    xt = workspace("xt", (c, n, lp), xp.dtype)
    np.copyto(xt, xp.transpose(2, 0, 1))
    win = sliding_window_view(xt, k, axis=2)  # (C, N, L, k)
    cols = workspace("cols", (c, k, n, out_steps), xp.dtype)
    np.copyto(cols, win.transpose(0, 3, 1, 2))
    return cols.reshape(c * k, n * out_steps)


def _window_row_bytes(layer) -> int:
    """``Layer.workspace_row_bytes`` of a windowed layer: one example's
    window matrix (its output, should a 1-tap kernel make that wider)."""
    out_steps, filters = layer.output_shape
    widest = max(layer.kernel_size * layer.input_shape[1], filters)
    return out_steps * widest * layer.dtype.itemsize


class Conv1D(Layer):
    """Stride-1 1-D convolution (cross-correlation, as in Keras).

    Kernel shape is ``(kernel_size, in_channels, filters)``. Supports
    ``padding`` of ``'valid'`` or ``'same'`` and a fused activation.
    """

    def __init__(
        self,
        filters: int,
        kernel_size: int,
        activation: Optional[str] = None,
        padding: str = "valid",
        kernel_initializer: str = "glorot_uniform",
        use_bias: bool = True,
        name: Optional[str] = None,
    ):
        super().__init__(name=name)
        if filters <= 0 or kernel_size <= 0:
            raise ValueError("filters and kernel_size must be positive")
        if padding not in ("valid", "same"):
            raise ValueError(f"padding must be 'valid' or 'same', got {padding!r}")
        self.filters = int(filters)
        self.kernel_size = int(kernel_size)
        self.padding = padding
        self.activation_name = activation
        self._act_fn, self._act_grad = (
            _act.get(activation) if activation else (None, None)
        )
        self.kernel_initializer = kernel_initializer
        self.use_bias = bool(use_bias)
        self._cache: tuple | None = None

    def build(self, input_shape, rng):
        if len(input_shape) != 2:
            raise ValueError(
                f"Conv1D expects (steps, channels) input, got {input_shape}"
            )
        steps, channels = input_shape
        if self.padding == "valid" and steps < self.kernel_size:
            raise ValueError(
                f"input length {steps} shorter than kernel {self.kernel_size}"
            )
        init = _init.get(self.kernel_initializer)
        self.add_param(
            "kernel", init((self.kernel_size, channels, self.filters), rng)
        )
        if self.use_bias:
            self.add_param("bias", np.zeros(self.filters))
        out_steps = steps if self.padding == "same" else steps - self.kernel_size + 1
        self.input_shape = tuple(input_shape)
        self.output_shape = (out_steps, self.filters)
        self.built = True

    workspace_row_bytes = _window_row_bytes

    def forward(self, x, training=False):
        self._require_built()
        k, co = self.kernel_size, self.filters
        kernel = self.params["kernel"]
        n, steps, c = x.shape
        self._pad_l = self._pad_r = 0
        xp = x
        if self.padding == "same" and k > 1:
            # margins are zero from allocation and never written
            self._pad_l = (k - 1) // 2
            self._pad_r = k - 1 - self._pad_l
            xp = self.scratch("xp", (n, steps + k - 1, c), x.dtype, zero=False)
            xp[:, self._pad_l : self._pad_l + steps, :] = x
        y = self.scratch(
            "y", (n, xp.shape[1] - k + 1, co), np.result_type(xp, kernel), zero=False
        )
        # y[(n, l), co] = sum_{k, ci} xp[n, l + k, ci] * kernel[k, ci, co]
        np.dot(
            _im2col(xp, k, self.workspace), kernel.reshape(-1, co),
            out=y.reshape(-1, co),
        )
        if self.use_bias:
            y += self.params["bias"]
        if self._act_fn is not None:
            self._act_fn(y, out=y)
        # cached: the (padded) input by reference, not its window matrix
        self._cache = (xp, y)
        return y

    def backward(self, dy, input_grad=True):
        xp, y = self._cache
        if self._act_fn is not None:
            dy = self._backprop_activation(dy, y)
        k = self.kernel_size
        n, steps, co = dy.shape
        kernel = self.params["kernel"]
        ci = kernel.shape[1]
        # dW[ci, k, co] = sum_{n, l} xp[n, l + k, ci] * dy[n, l, co]
        # (its own buffer only when set_grad copies out of it)
        dw = (
            self.scratch("dw", (ci * k, co), np.result_type(xp, dy), zero=False)
            if self._arena_grads
            else None
        )
        dw = np.dot(_im2col_t(xp, k, self.workspace), dy.reshape(n * steps, co), out=dw)
        self.set_grad("kernel", dw.reshape(-1, k, co).transpose(1, 0, 2))
        if self.use_bias:
            self.set_grad("bias", dy.sum(axis=(0, 1)))
        if not input_grad:
            return None
        # Full correlation of dy with the tap-reversed kernel gives dx.
        if k > 1:
            # margins are zero from allocation and never written
            dyp = self.scratch("dyp", (n, steps + 2 * (k - 1), co), dy.dtype, zero=False)
            dyp[:, k - 1 : k - 1 + steps, :] = dy
        else:
            dyp = dy
        # taps reversed, (k, co) flattened to match _im2col's columns
        w_flip = self.scratch("w_flip", (k * co, ci), kernel.dtype, zero=False)
        np.copyto(w_flip.reshape(k, co, ci), kernel[::-1].transpose(0, 2, 1))
        dxp = self.scratch(
            "dxp", (n, steps + k - 1, ci), np.result_type(dy, kernel), zero=False
        )
        np.dot(_im2col(dyp, k, self.workspace), w_flip, out=dxp.reshape(-1, ci))
        return dxp[:, self._pad_l : dxp.shape[1] - self._pad_r, :]


class MaxPooling1D(Layer):
    """Non-overlapping max pooling (``strides == pool_size``).

    Trailing steps that do not fill a window are dropped, matching
    Keras's 'valid' pooling.
    """

    def __init__(self, pool_size: int = 2, name: Optional[str] = None):
        super().__init__(name=name)
        if pool_size <= 0:
            raise ValueError(f"pool_size must be positive, got {pool_size}")
        self.pool_size = int(pool_size)
        self._cache: tuple | None = None
        self._input: np.ndarray | None = None

    def build(self, input_shape, rng):
        if len(input_shape) != 2:
            raise ValueError(
                f"MaxPooling1D expects (steps, channels) input, got {input_shape}"
            )
        steps, channels = input_shape
        out_steps = steps // self.pool_size
        if out_steps == 0:
            raise ValueError(
                f"input length {steps} shorter than pool size {self.pool_size}"
            )
        self.input_shape = tuple(input_shape)
        self.output_shape = (out_steps, channels)
        self.built = True

    def forward(self, x, training=False):
        self._require_built()
        # the winning tap is backward's business: inference does not
        # compute it, and keeps the input so a backward that does follow
        # (gradcheck, the noise-scale estimate) can
        out, idx = self._pool(x, want_idx=training)
        self._cache = (x.shape, idx)
        self._input = None if training else x
        return out

    def _pool(self, x, want_idx):
        """``(pooled, winning tap or None)``, one walk over the taps:
        np.maximum keeps the value (and, like np.max, hands a NaN
        through), a strict > keeps the first tap that reached it
        (argmax's tie rule)."""
        p = self.pool_size
        n, steps, c = x.shape
        out_steps = steps // p
        xw = x[:, : out_steps * p, :].reshape(n, out_steps, p, c)
        out = self.scratch("y", (n, out_steps, c), x.dtype, zero=False)
        # p == 1: every window's winner is tap 0
        idx = self.scratch("idx", out.shape, np.intp, zero=p == 1) if want_idx else None
        if p == 1:
            np.copyto(out, xw[:, :, 0, :])
            return out, idx
        if want_idx:
            np.greater(xw[:, :, 1, :], xw[:, :, 0, :], out=idx)
        np.maximum(xw[:, :, 0, :], xw[:, :, 1, :], out=out)
        for tap in range(2, p):
            if want_idx:
                beats = self.scratch("beats", out.shape, np.bool_, zero=False)
                np.copyto(idx, tap, where=np.greater(xw[:, :, tap, :], out, out=beats))
            np.maximum(out, xw[:, :, tap, :], out=out)
        return out, idx

    def backward(self, dy):
        in_shape, idx = self._cache
        if idx is None:
            idx = self._pool(self._input, want_idx=True)[1]
        p = self.pool_size
        n, out_steps, c = dy.shape
        # scatter target must be re-zeroed (argmax positions move per batch)
        dxw = self.scratch("dxw", (n, out_steps, p, c), dy.dtype)
        ni, li, ci = np.ogrid[:n, :out_steps, :c]
        dxw[ni, li, idx, ci] = dy
        # the pooled region is fully overwritten; the dropped tail stays
        # zero from allocation, so no re-zero is needed
        dx = self.scratch("dx", in_shape, dy.dtype, zero=False)
        dx[:, : out_steps * p, :] = dxw.reshape(n, out_steps * p, c)
        return dx


class LocallyConnected1D(Layer):
    """Conv1D with *unshared* weights per output position.

    The paper describes P1B3 as "an MLP network with convolution-like
    layers"; locally connected layers are the Keras construct CANDLE's
    P1B3 offers for that. Kernel shape:
    ``(out_steps, kernel_size * in_channels, filters)``.
    """

    def __init__(
        self,
        filters: int,
        kernel_size: int,
        activation: Optional[str] = None,
        kernel_initializer: str = "glorot_uniform",
        use_bias: bool = True,
        name: Optional[str] = None,
    ):
        super().__init__(name=name)
        if filters <= 0 or kernel_size <= 0:
            raise ValueError("filters and kernel_size must be positive")
        self.filters = int(filters)
        self.kernel_size = int(kernel_size)
        self.activation_name = activation
        self._act_fn, self._act_grad = (
            _act.get(activation) if activation else (None, None)
        )
        self.kernel_initializer = kernel_initializer
        self.use_bias = bool(use_bias)
        self._cache: tuple | None = None

    def build(self, input_shape, rng):
        if len(input_shape) != 2:
            raise ValueError(
                f"LocallyConnected1D expects (steps, channels), got {input_shape}"
            )
        steps, channels = input_shape
        out_steps = steps - self.kernel_size + 1
        if out_steps <= 0:
            raise ValueError(
                f"input length {steps} shorter than kernel {self.kernel_size}"
            )
        init = _init.get(self.kernel_initializer)
        self.add_param(
            "kernel",
            init((out_steps, self.kernel_size * channels, self.filters), rng),
        )
        if self.use_bias:
            self.add_param("bias", np.zeros((out_steps, self.filters)))
        self.input_shape = tuple(input_shape)
        self.output_shape = (out_steps, self.filters)
        self.built = True

    workspace_row_bytes = _window_row_bytes

    def forward(self, x, training=False):
        self._require_built()
        k = self.kernel_size
        n, steps, c = x.shape
        out_steps = self.output_shape[0]
        # (N, out_steps, c, k) -> flatten the (k, c) receptive field in
        # (tap, channel) order to match the kernel layout below.
        win = sliding_window_view(x, k, axis=1)
        win_flat = win.transpose(0, 1, 3, 2).reshape(n, out_steps, k * c)
        z = np.einsum("nlf,lfo->nlo", win_flat, self.params["kernel"])
        if self.use_bias:
            z += self.params["bias"]  # z is fresh from the einsum
        if self._act_fn is None:
            self._cache = (x.shape, win_flat, None, None)
            return z
        y = self._act_fn(z)
        self._cache = (x.shape, win_flat, z, y)
        return y

    def backward(self, dy, input_grad=True):
        in_shape, win_flat, z, y = self._cache
        if self._act_fn is not None:
            dy = dy * self._act_grad(z, y)
        kdst = self.grads.get("kernel") if self._arena_grads else None
        if kdst is not None and kdst.dtype == np.result_type(win_flat, dy):
            np.einsum("nlf,nlo->lfo", win_flat, dy, out=kdst)
        else:
            self.set_grad("kernel", np.einsum("nlf,nlo->lfo", win_flat, dy))
        if self.use_bias:
            self.set_grad("bias", dy.sum(axis=0))
        if not input_grad:
            return None
        dwin = np.einsum("nlo,lfo->nlf", dy, self.params["kernel"])
        n, steps, c = in_shape
        k = self.kernel_size
        out_steps = dy.shape[1]
        dwin = dwin.reshape(n, out_steps, k, c)
        # overlap-add accumulates, so the buffer must start from zero
        dx = self.scratch("dx", in_shape, dy.dtype)
        for tap in range(k):  # overlap-add of the k shifted slices
            dx[:, tap : tap + out_steps, :] += dwin[:, :, tap, :]
        return dx


class AveragePooling1D(Layer):
    """Non-overlapping average pooling (``strides == pool_size``)."""

    def __init__(self, pool_size: int = 2, name: Optional[str] = None):
        super().__init__(name=name)
        if pool_size <= 0:
            raise ValueError(f"pool_size must be positive, got {pool_size}")
        self.pool_size = int(pool_size)
        self._in_shape: tuple | None = None

    def build(self, input_shape, rng):
        if len(input_shape) != 2:
            raise ValueError(
                f"AveragePooling1D expects (steps, channels), got {input_shape}"
            )
        steps, channels = input_shape
        out_steps = steps // self.pool_size
        if out_steps == 0:
            raise ValueError(
                f"input length {steps} shorter than pool size {self.pool_size}"
            )
        self.input_shape = tuple(input_shape)
        self.output_shape = (out_steps, channels)
        self.built = True

    def forward(self, x, training=False):
        self._require_built()
        p = self.pool_size
        n, steps, c = x.shape
        out_steps = steps // p
        self._in_shape = x.shape
        return x[:, : out_steps * p, :].reshape(n, out_steps, p, c).mean(axis=2)

    def backward(self, dy):
        p = self.pool_size
        n, out_steps, c = dy.shape
        # pooled region fully overwritten below; tail stays zero
        dx = self.scratch("dx", self._in_shape, dy.dtype, zero=False)
        pooled = dx[:, : out_steps * p, :]
        try:
            # in-place shape change: guaranteed view (raises rather than copy)
            pooled.shape = (n, out_steps, p, c)
        except AttributeError:
            dx[:, : out_steps * p, :] = np.repeat(dy / p, p, axis=1)
            return dx
        pooled[...] = (dy / p)[:, :, None, :]
        return dx


class GlobalMaxPooling1D(Layer):
    """Max over the whole steps axis: (N, L, C) -> (N, C)."""

    def __init__(self, name: Optional[str] = None):
        super().__init__(name=name)
        self._cache: tuple | None = None

    def build(self, input_shape, rng):
        if len(input_shape) != 2:
            raise ValueError(
                f"GlobalMaxPooling1D expects (steps, channels), got {input_shape}"
            )
        self.input_shape = tuple(input_shape)
        self.output_shape = (input_shape[1],)
        self.built = True

    def forward(self, x, training=False):
        self._require_built()
        idx = np.argmax(x, axis=1)  # (N, C)
        self._cache = (x.shape, idx)
        return np.max(x, axis=1)

    def backward(self, dy):
        shape, idx = self._cache
        # scatter target: re-zero on reuse (argmax positions move)
        dx = self.scratch("dx", shape, dy.dtype)
        n, _, c = shape
        ni, ci = np.ogrid[:n, :c]
        dx[ni, idx, ci] = dy
        return dx
