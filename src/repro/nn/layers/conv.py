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
(:func:`_windows`, :func:`_gather_rows`, :func:`_cols_t`), not by
``tensordot``'s generic copy of a strided 4-D view, and into the model's
shared workspace (:meth:`Layer.workspace`) rather than a fresh array per
gather.

Forward and dx stream through the block; only dW gathers whole. The
forward and dx window matrices are never held: their rows pass through
one :data:`WINDOW_BLOCK_BYTES` block per thread, a row tile at a time,
with one GEMM per tile, cut where :func:`~repro.nn.halves.gemm_edges`
allows (so every tile sums as the whole GEMM would). The dW gather
(:func:`_cols_t`) stays whole: its GEMM reduces over the long
``N·L`` axis, and cutting that K changes the sums. No layer keeps a
window matrix either: forward and dW want different layouts
(``cols.T @ dy`` on a kept forward matrix is a transposed-operand GEMM,
which BLAS does not sum in the same order), so the largest window
buffer in the process is one batch's dW gather, and inference holds
none but the blocks.

Two cores (:mod:`repro.nn.halves`): ``Conv1D`` and ``MaxPooling1D``
run the first samples of a batch on the calling thread and the rest on
the helper — gathers, the forward GEMM's tiles (the halves cut where
:func:`~repro.nn.halves.gemm_edges` allows, each through its own block),
bias, activation and its derivative, pooling both ways — and a dW GEMM
runs whole on the helper beside the dx GEMM (or, without dx, the bias
sum).

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
from repro.nn.initializers import glorot_uniform
from repro.nn.halves import GEMM_ROWS, beside, gemm_edges, halves, run_split, split_at
from repro.nn.layers.base import Layer

__all__ = [
    "Conv1D",
    "MaxPooling1D",
    "LocallyConnected1D",
]


#: bytes of the block a ``Conv1D`` forward or dx window matrix is
#: gathered through, a row tile at a time (tests patch it to force tiles
#: of 16 rows). Half a core's L2 on the 2-vCPU Xeon it was measured on,
#: so a tile, its GEMM's output and the kernel stay there: an NT3 train
#: step ran 2-4% slower than a whole-tile gather at 2 MiB, 2-5% faster
#: at 1 MiB.
WINDOW_BLOCK_BYTES = 1 << 20

#: the workspace slot of each thread's block: the calling thread's (which
#: dx uses too), then the helper's
_BLOCKS = ("block", "block_helper")


def _windows(xp: np.ndarray, k: int) -> np.ndarray:
    """``(N, Lp, C)`` → the ``(N, L, k·C)`` view of every window,
    ``L = Lp - k + 1``.

    Row ``(n, l)`` is the window ``xp[n, l : l + k, :]`` flattened in
    (tap, channel) order — already ``k·C`` consecutive scalars of a
    contiguous ``xp``, so a gather copies one run per row.
    """
    n, lp, c = xp.shape
    # windows of k·C scalars over the flattened (steps, channels) axis,
    # one every C scalars
    return sliding_window_view(xp.reshape(n, lp * c), k * c, axis=1)[:, ::c]


def _gather_rows(win: np.ndarray, lo: int, hi: int, out: np.ndarray) -> None:
    """Rows ``lo:hi`` of the window matrix ``win`` stands for (its first
    two axes flattened, which no view can do) into ``out``."""
    steps = win.shape[1]
    first, head = divmod(lo, steps)
    if head:  # the rest of the sample the rows start inside
        rows = min(steps - head, hi - lo)
        np.copyto(out[:rows], win[first, head : head + rows])
        out, first = out[rows:], first + 1
    last, tail = divmod(hi, steps)
    if last > first:  # whole samples
        whole = (last - first) * steps
        np.copyto(out[:whole].reshape(-1, steps, win.shape[2]), win[first:last])
        out = out[whole:]
    if tail and last >= first:  # the start of the sample they end inside
        np.copyto(out, win[last, :tail])


def _row_tiles(rows: int, n: int, depth: int, itemsize: int) -> list[int]:
    """Row edges of an ``(rows, depth) @ (depth, n)`` GEMM streamed
    through a :data:`WINDOW_BLOCK_BYTES` block: tiles of a multiple of 16
    rows (16 at least) that fit it, as even as that allows — so the rule
    has no short last tile to fold into the one before — less the cuts
    :func:`~repro.nn.halves.gemm_edges` forbids."""
    most = max(GEMM_ROWS, WINDOW_BLOCK_BYTES // (depth * itemsize) // GEMM_ROWS * GEMM_ROWS)
    if rows <= most:
        return [0, rows]
    count = -(-rows // most)
    tile = -(-rows // (count * GEMM_ROWS)) * GEMM_ROWS  # rows / count, up to 16s
    return gemm_edges([*range(0, rows, tile), rows], n, depth)


def _block(layer: Layer, slot: str, edges: list[int], depth: int, dtype) -> np.ndarray:
    """``slot``'s workspace block, as long as the longest tile of ``edges``."""
    longest = max(hi - lo for lo, hi in zip(edges, edges[1:]))
    return layer.workspace(slot, (longest, depth), dtype)


def _cols_t(xp: np.ndarray, k: int, workspace):
    """The ``(C·k, N·L)`` transposed window matrix, rows in (channel,
    tap) order, and ``gather(lo, hi)`` filling samples ``lo:hi`` of it
    (``None`` when there is nothing to gather).

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
        view = sliding_window_view(xp, k, axis=1).transpose(2, 3, 0, 1).reshape(c * k, -1)
        return view, None
    xt = workspace("xt", (c, n, lp), xp.dtype)
    cols = workspace("cols", (c, k, n, out_steps), xp.dtype)

    def gather(lo, hi):
        np.copyto(xt[:, lo:hi], xp[lo:hi].transpose(2, 0, 1))
        win = sliding_window_view(xt[:, lo:hi], k, axis=2)  # (C, n, L, k)
        np.copyto(cols[:, :, lo:hi], win.transpose(0, 3, 1, 2))

    return cols.reshape(c * k, n * out_steps), gather


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
        self.add_param(
            "kernel", glorot_uniform((self.kernel_size, channels, self.filters), rng)
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
        bias = self.params["bias"] if self.use_bias else None
        n, steps, c = x.shape
        self._pad_l = self._pad_r = 0
        xp = x
        if self.padding == "same" and k > 1:
            # margins are zero from allocation and never written
            self._pad_l = (k - 1) // 2
            self._pad_r = k - 1 - self._pad_l
            xp = self.scratch("xp", (n, steps + k - 1, c), x.dtype, zero=False)
        out_steps = xp.shape[1] - k + 1
        y = self.scratch("y", (n, out_steps, co), np.result_type(xp, kernel), zero=False)
        y2d = y.reshape(-1, co)
        win = _windows(xp, k)
        pad = slice(self._pad_l, self._pad_l + steps)
        kernel2d = kernel.reshape(-1, co)
        depth = k * c
        # Each thread of the split streams its samples' window rows
        # through a block of its own. A half is a GEMM the rule lets stand
        # alone (split_at cut it so), and its tiles are cut as dx's are.
        at = split_at(n, n * out_steps * depth, gemm=(out_steps, co, depth))
        spans = [(0, n)] if at is None else [(0, at), (at, n)]
        streams = {}  # first sample of a span -> (its row edges, its block)
        for (lo, hi), slot in zip(spans, _BLOCKS):
            edges = _row_tiles((hi - lo) * out_steps, co, depth, xp.itemsize)
            block = _block(self, slot, edges, depth, xp.dtype)
            streams[lo] = [lo * out_steps + e for e in edges], block

        def part(lo, hi):
            if xp is not x:
                xp[lo:hi, pad] = x[lo:hi]
            edges, block = streams[lo]
            for r0, r1 in zip(edges, edges[1:]):
                rows, out = block[: r1 - r0], y2d[r0:r1]
                _gather_rows(win, r0, r1, rows)
                # y[(n, l), co] = sum_{k, ci} xp[n, l + k, ci] * kernel[k, ci, co]
                np.dot(rows, kernel2d, out=out)
                if bias is not None:
                    out += bias
                if self._act_fn is not None:
                    self._act_fn(out, out=out)

        run_split(part, n, at)
        # cached: the (padded) input by reference, not its window matrix
        self._cache = (xp, y)
        return y

    def backward(self, dy, input_grad=True):
        xp, y = self._cache
        k = self.kernel_size
        n, steps, co = dy.shape
        kernel = self.params["kernel"]
        ci = kernel.shape[1]
        # dy through the activation's derivative, filled in halves below
        dz = dy if self._act_grad is None else self._dz_buffer(dy, y)
        # dW[ci, k, co] = sum_{n, l} xp[n, l + k, ci] * dz[n, l, co]
        # (its own buffer only when set_grad copies out of it)
        dw = (
            self.scratch("dw", (ci * k, co), np.result_type(xp, dz), zero=False)
            if self._arena_grads
            else None
        )
        cols_t, gather = _cols_t(xp, k, self.workspace)
        # Full correlation of dz with the tap-reversed kernel gives dx.
        dyp = None
        if input_grad and k > 1:
            # margins are zero from allocation and never written
            dyp = self.scratch("dyp", (n, steps + 2 * (k - 1), co), dz.dtype, zero=False)

        def prepare(lo, hi):
            if dz is not dy:
                self._backprop_activation(dy[lo:hi], y[lo:hi], dz[lo:hi])
            if gather is not None:
                gather(lo, hi)
            if dyp is not None:
                dyp[lo:hi, k - 1 : k - 1 + steps] = dz[lo:hi]

        passes = (dz is not dy) + (dyp is not None)
        halves(prepare, n, passes * dz.size + (gather is not None) * cols_t.size)

        def weights():
            grad = np.dot(cols_t, dz.reshape(n * steps, co), out=dw)
            self.set_grad("kernel", grad.reshape(-1, k, co).transpose(1, 0, 2))

        def bias_grad():
            if self.use_bias:
                self.set_grad("bias", dz.sum(axis=(0, 1)))

        if not input_grad:
            beside(bias_grad, weights, cols_t.size)
            return None
        dxp = self.scratch(
            "dxp", (n, steps + k - 1, ci), np.result_type(dz, kernel), zero=False
        )
        out = dxp.reshape(-1, ci)
        if k == 1:
            # No window overlaps another, so dz is the window matrix, and
            # the oracle's tap-reversed kernel is numpy's in-place reshape
            # of it, kernel[0].T: a transposed operand, which BLAS sums in
            # its own order, and in row pieces not as it sums the whole.
            def dx_gemm():
                np.dot(dz.reshape(-1, co), kernel[0].T, out=out)
        else:
            # taps reversed, (k, co) flattened to match _windows' columns
            w_flip = self.scratch("w_flip", (k * co, ci), kernel.dtype, zero=False)
            np.copyto(w_flip.reshape(k, co, ci), kernel[::-1].transpose(0, 2, 1))
            win = _windows(dyp, k)
            # row tiles of the dx GEMM, gathered through the calling
            # thread's block while the dW GEMM holds the cols block
            depth = k * co
            edges = _row_tiles(len(out), ci, depth, win.itemsize)
            block = _block(self, _BLOCKS[0], edges, depth, win.dtype)

            def dx_gemm():
                for lo, hi in zip(edges, edges[1:]):
                    _gather_rows(win, lo, hi, block[: hi - lo])
                    np.dot(block[: hi - lo], w_flip, out=out[lo:hi])

        def inputs():
            bias_grad()
            dx_gemm()

        beside(inputs, weights, cols_t.size)
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
        # (gradcheck) can
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
        beats = self.scratch("beats", out.shape, np.bool_, zero=False) if want_idx and p > 2 else None

        def part(lo, hi):
            win, top = xw[lo:hi], out[lo:hi]
            if p == 1:
                np.copyto(top, win[:, :, 0, :])
                return
            if want_idx:
                np.greater(win[:, :, 1, :], win[:, :, 0, :], out=idx[lo:hi])
            np.maximum(win[:, :, 0, :], win[:, :, 1, :], out=top)
            for tap in range(2, p):
                if want_idx:
                    np.copyto(idx[lo:hi], tap,
                              where=np.greater(win[:, :, tap, :], top, out=beats[lo:hi]))
                np.maximum(top, win[:, :, tap, :], out=top)

        halves(part, n, x.size)
        return out, idx

    def backward(self, dy):
        in_shape, idx = self._cache
        if idx is None:
            idx = self._pool(self._input, want_idx=True)[1]
        p = self.pool_size
        n, out_steps, c = dy.shape
        dx = self.scratch("dx", in_shape, dy.dtype, zero=False)
        # the windows' view of dx: each gets its winning tap's gradient
        pooled = dx[:, : out_steps * p, :].reshape(n, out_steps, p, c)

        def part(lo, hi):
            # zero the rest (winners move per batch, and the dropped tail
            # takes no gradient)
            dx[lo:hi].fill(0)
            ni, li, ci = np.ogrid[: hi - lo, :out_steps, :c]
            pooled[lo:hi][ni, li, idx[lo:hi], ci] = dy[lo:hi]

        halves(part, n, dx.size)
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
        self.add_param(
            "kernel",
            glorot_uniform((out_steps, self.kernel_size * channels, self.filters), rng),
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
