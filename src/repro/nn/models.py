"""The Sequential model: compile / fit / evaluate / predict.

This is the Keras surface the CANDLE benchmarks are written against
(Figure 2 of the paper: data loading → training + cross-validation →
prediction/evaluation; the middle phase is ``fit``).

Distributed-training hooks, mirroring the paper's Horovod additions:

- every parameter and gradient lives in one
  :class:`~repro.nn.arena.ParameterArena`, and the optimizer is
  pluggable, so ``hvd.DistributedOptimizer`` can wrap it (the gradient
  slab's allreduce happens inside ``optimizer.apply_arena``);
- callbacks run at epoch/batch boundaries, so
  ``BroadcastGlobalVariablesCallback`` can sync initial weights;
- ``set_weights`` copies *in place*, so a broadcast does not invalidate
  optimizer state or cross-rank array identity.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.ingest.prefetch import EpochPrefetcher
from repro.nn import losses as _losses
from repro.nn import metrics as _metrics
from repro.nn import optimizers as _optimizers
from repro.nn.arena import DEFAULT_DTYPE, ParameterArena
from repro.nn.callbacks import Callback, CallbackList, History
from repro.nn.halves import GEMM_ROWS, gemm_edges
from repro.nn.layers.base import Layer
from repro.nn.layers.conv import Conv1D
from repro.nn.layers.core import Activation, Dense
from repro.overlap import OverlapScheduler
from repro.train import DEFAULT_TRAIN_OPTIONS

__all__ = ["Sequential"]

#: Byte budget of one ``predict`` tile: the model's largest
#: ``Layer.workspace_row_bytes()`` (for NT3, a Conv1D window row) times
#: the tile's rows. See ``Sequential.predict``; the sweep that chose it is
#: in docs/ARCHITECTURE.md ("The memory plan").
WORKSPACE_BYTES = 24 << 20


def _forward_gemms(layer: Layer) -> list[tuple[int, int, int]]:
    """``(rows per example, N, K)`` of each GEMM ``layer``'s inference
    forward runs."""
    if isinstance(layer, Dense):
        return [(1, layer.units, layer.input_shape[0])]
    if isinstance(layer, Conv1D):
        out_steps, filters = layer.output_shape
        return [(out_steps, filters, layer.kernel_size * layer.input_shape[1])]
    return []


class Sequential:
    """A linear stack of layers."""

    def __init__(self, layers: Optional[Iterable[Layer]] = None, name: str = "sequential"):
        self.name = name
        self.layers: list[Layer] = []
        self.optimizer: _optimizers.Optimizer | None = None
        self.loss: _losses.Loss | None = None
        self.metrics: list = []
        self.metric_names: list[str] = []
        self.built = False
        self.dtype = DEFAULT_DTYPE
        self._arena: ParameterArena | None = None
        #: the memory plan, fixed by build(): bytes per example of the
        #: widest buffer a forward fills, and predict's own set of layer
        #: work buffers (tile-sized; fit's are batch-sized)
        self._row_bytes = 0
        #: (rows per example, N, K) of every GEMM a forward runs: where
        #: predict may cut a slice into tiles (see _tile_edges)
        self._gemms: list[tuple[int, int, int]] = []
        self._tile_buffers: list[dict] = []
        self._shuffle_rng = np.random.default_rng(0)
        #: layer-completion callbacks fired during backward (overlap)
        self._backward_hooks: list = []
        #: the installed repro.overlap scheduler, if any
        self._overlap = None
        #: OverlapStats from the most recent overlapped fit (else None)
        self.last_overlap_stats = None
        #: PrefetchStats from the most recent prefetched fit (else None)
        self.last_prefetch_stats = None
        for layer in layers or []:
            self.add(layer)

    # -- construction ------------------------------------------------------
    def add(self, layer: Layer) -> None:
        """Append a layer; building is deferred until :meth:`build`."""
        if self.built:
            raise RuntimeError("cannot add layers after the model is built")
        self.layers.append(layer)

    def build(self, input_shape: Sequence[int], seed: int = 0, *, train=None) -> None:
        """Build every layer for a per-example ``input_shape``.

        ``seed`` drives weight init; SPMD ranks pass different seeds and
        rely on the Horovod broadcast to reconcile, as the paper does.

        After building, all parameters and gradients move into a
        :class:`~repro.nn.arena.ParameterArena` — contiguous slabs that
        enable fused optimizer updates and zero-copy gradient allreduce.

        ``train`` is a :class:`repro.train.TrainOptions` (None means
        ``DEFAULT_TRAIN_OPTIONS``); its ``dtype`` sets the
        parameter/compute precision (``repro.nn.DEFAULT_DTYPE``,
        float32, unless it names another). Every batch the model reads
        is cast into it on the way in (:meth:`_cast_in`).
        """
        if train is None:
            train = DEFAULT_TRAIN_OPTIONS
        if self.built:
            raise RuntimeError("model already built")
        if not self.layers:
            raise ValueError("cannot build an empty model")
        if train.dtype is not None:
            self.dtype = train.dtype
        rng = np.random.default_rng(seed)
        self._shuffle_rng = np.random.default_rng(rng.integers(0, 2**63 - 1))
        shape = tuple(int(s) for s in input_shape)
        shared: dict = {}
        for i, layer in enumerate(self.layers):
            if layer.auto_named:
                # positional names: identical across SPMD ranks regardless
                # of thread interleaving, so broadcast/allreduce align
                layer.name = f"{type(layer).__name__.lower()}_{i}"
            layer.dtype = self.dtype
            layer._shared = shared
            layer.build(shape, rng)
            shape = layer.output_shape
        self._row_bytes = max(layer.workspace_row_bytes() for layer in self.layers)
        self._gemms = [gemm for layer in self.layers for gemm in _forward_gemms(layer)]
        self._tile_buffers = [{} for _ in self.layers]
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate layer names: {names}")
        self.built = True
        if any(layer.params for layer in self.layers):
            self._arena = ParameterArena.adopt(self, dtype=self.dtype)

    @property
    def arena(self) -> ParameterArena | None:
        """The parameter arena, or ``None`` for a model with no parameters."""
        return self._arena

    def compile(self, optimizer="sgd", loss="mse", metrics: Sequence[str] = (), lr: float | None = None) -> None:
        """Attach optimizer, loss, and metrics (Keras signature subset)."""
        self.optimizer = _optimizers.get(optimizer, lr=lr)
        self.loss = _losses.get(loss)
        self.metrics = [_metrics.get(m) for m in metrics]
        self.metric_names = list(metrics)

    # -- parameter access ----------------------------------------------------
    def named_parameters(self) -> dict[str, np.ndarray]:
        """Flat dict of ``layer_name/param_key`` → array (live references)."""
        self._require_built()
        out: dict[str, np.ndarray] = {}
        for layer in self.layers:
            for key, arr in layer.params.items():
                out[f"{layer.name}/{key}"] = arr
        return out

    def named_gradients(self) -> dict[str, np.ndarray]:
        """Flat dict of the most recent backward pass's gradients."""
        out: dict[str, np.ndarray] = {}
        for layer in self.layers:
            for key, arr in layer.grads.items():
                out[f"{layer.name}/{key}"] = arr
        return out

    def get_weights(self) -> list[np.ndarray]:
        """Copies of all weights in layer order (Keras convention)."""
        return [arr.copy() for arr in self.named_parameters().values()]

    def set_weights(self, weights: Sequence[np.ndarray]) -> None:
        """Copy ``weights`` into the model's arrays *in place*.

        The arena's ranks are no longer known to be synchronized
        (:attr:`ParameterArena.replicated`) until the next weight
        broadcast: each rank may have written its own.
        """
        params = list(self.named_parameters().values())
        if len(weights) != len(params):
            raise ValueError(
                f"expected {len(params)} weight arrays, got {len(weights)}"
            )
        for dst, src in zip(params, weights):
            src = np.asarray(src)
            if dst.shape != src.shape:
                raise ValueError(f"shape mismatch: {dst.shape} vs {src.shape}")
            np.copyto(dst, src)
        if self.arena is not None:
            self.arena.replicated = False

    def count_params(self) -> int:
        """Total trainable scalar count."""
        self._require_built()
        return sum(layer.param_count() for layer in self.layers)

    # -- forward / backward ---------------------------------------------------
    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Forward pass in inference mode, tiled to bound memory.

        ``batch_size`` rows at a time, as ever — but a slice whose priced
        bytes (``row_bytes`` a row: a Conv1D window row is hundreds of
        KB, a Dense output a few) would pass
        ``WORKSPACE_BYTES`` goes through the stack in tiles that stay
        under it, cut so that the bytes are the unsplit slice's
        (:meth:`_tile_edges`). Each tile is cast into the model's dtype
        on the way in and copied into the array returned, which is the
        only thing allocated per call: the layers (and the cast) work in
        a set of buffers of their own, tile-sized and kept between
        calls.
        """
        self._require_built()
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        rows = len(x)
        if rows == 0:
            raise ValueError("predict called with empty input")
        edges = self._tile_edges(rows, batch_size)
        out = None
        fit_buffers = self._swap_buffers(self._tile_buffers)
        try:
            if len(edges) == 2:  # one tile: a serving batch
                return self._forward(x, training=False).copy()
            for start, stop in zip(edges, edges[1:]):
                y = self._forward(x[start:stop], training=False)
                if out is None:
                    out = np.empty((rows,) + y.shape[1:], dtype=y.dtype)
                out[start:stop] = y
        finally:
            self._swap_buffers(fit_buffers)
        return out

    def _swap_buffers(self, sets: list[dict]) -> list[dict]:
        """Point every layer at its dict in ``sets``; returns the old ones."""
        old = [layer._scratch for layer in self.layers]
        for layer, buffers in zip(self.layers, sets):
            layer._scratch = buffers
        return old

    def _tile_edges(self, rows: int, batch_size: int) -> list[int]:
        """Row boundaries of ``predict``'s forward passes: the caller's
        ``batch_size`` slices, each cut into tiles the plan allows."""
        # Tiling a slice must not show in its bytes: tiles are multiples
        # of 16 examples, and every GEMM of the stack may be cut only
        # where repro.nn.halves.gemm_edges allows it (a tile one of them
        # may not cut off joins the tile after it; the last one, the tile
        # before it). Rows too wide for 16 in the budget keep the budget
        # instead: tiles of fewer examples, the last two joined, which
        # take those tiles' bits (DESIGN.md, "Not kept, by construction").
        tile = WORKSPACE_BYTES // self._row_bytes
        exact = tile >= GEMM_ROWS
        tile = tile // GEMM_ROWS * GEMM_ROWS if exact else max(1, tile)
        edges = []
        for lo in range(0, rows, batch_size):
            width = min(batch_size, rows - lo)
            cuts = [*range(0, width, tile), width]
            if len(cuts) > 2 and not exact:
                del cuts[-2]
            elif len(cuts) > 2:
                for per_row, n, k in self._gemms:
                    cuts = [e // per_row for e in gemm_edges([e * per_row for e in cuts], n, k)]
            edges += [lo + e for e in cuts[:-1]]
        return [*edges, rows]

    def _cast_in(self, a, layer: Layer, key: str) -> np.ndarray:
        """``a`` in the model's dtype: ``a`` itself when it already is,
        else a cast into ``layer``'s work buffer ``key``. The one place
        the loaders' float64 rows become the model's precision, a batch
        or a ``predict`` tile at a time: inputs go to ``layers[0]``'s
        ``"input"``, targets to the last layer's ``"target"``."""
        if getattr(a, "dtype", None) == self.dtype:
            return a
        buf = layer.scratch(key, np.shape(a), self.dtype, zero=False)
        np.copyto(buf, a)
        return buf

    def _forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        """The last layer's output — borrowed: it is that layer's work
        buffer, overwritten by the next forward."""
        h = self._cast_in(x, self.layers[0], "input")
        for layer in self.layers:
            h = layer.forward(h, training=training)
        return h

    def _loss_buffer(self, y_true: np.ndarray, y_pred: np.ndarray):
        """Where the loss works and leaves its gradient (the last
        layer's), or ``None`` if numpy would broadcast."""
        if np.shape(y_true) != y_pred.shape:
            return None
        return self.layers[-1].scratch("loss", y_pred.shape, y_pred.dtype, zero=False)

    def _backward(self, y_true: np.ndarray, y_pred: np.ndarray) -> None:
        """Backprop the loss gradient through the stack.

        Fuses softmax with categorical cross-entropy when the last layer
        is ``Activation('softmax')`` or ``Dense(activation='softmax')``.

        ``layers[0]`` reads the data batch, so nobody consumes its input
        gradient: when it owns parameters it is asked for its parameter
        gradients only (``input_grad=False``). For NT3 that dx was 40%
        of the step.
        """
        first, last = self.layers[0], self.layers[-1]
        fused = isinstance(self.loss, _losses.CategoricalCrossentropy) and (
            (isinstance(last, Activation) and last.is_softmax)
            or (isinstance(last, Dense) and last.activation_name == "softmax")
        )
        out = self._loss_buffer(y_true, y_pred)
        if fused:
            grad = self.loss.fused_softmax_grad(y_true, y_pred, out=out)
            if isinstance(last, Activation):
                rest = self.layers[:-1]
            else:
                grad = last.backward_from_logits(grad, input_grad=last is not first)
                self._notify_backward(last)
                rest = self.layers[:-1]
        else:
            grad = self.loss.grad(y_true, y_pred, out=out)
            rest = self.layers
        for layer in reversed(rest):
            if layer is first and layer.params:
                layer.backward(grad, input_grad=False)
            else:
                grad = layer.backward(grad)
            self._notify_backward(layer)

    def _notify_backward(self, layer: Layer) -> None:
        """Fire layer-completion hooks: this layer's gradients are final."""
        for hook in self._backward_hooks:
            hook(layer)

    def _regularization_penalty(self) -> float:
        return sum(layer.regularization_penalty() for layer in self.layers)

    # -- training ------------------------------------------------------------
    def train_on_batch(self, x: np.ndarray, y: np.ndarray) -> dict[str, float]:
        """One forward/backward/update step; returns batch logs."""
        self._require_compiled()
        y_pred = self._forward(x, training=True)
        y = self._cast_in(y, self.layers[-1], "target")
        loss_val = self.loss.value(y, y_pred, out=self._loss_buffer(y, y_pred))
        loss_val += self._regularization_penalty()
        if self._overlap is not None:
            self._overlap.begin_step()
        self._backward(y, y_pred)
        if self._arena is not None:
            self.optimizer.apply_arena(self._arena)
        logs = {"loss": float(loss_val)}
        for name, fn in zip(self.metric_names, self.metrics):
            logs[name] = fn(y, y_pred)
        return logs

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray | None = None,
        batch_size: int = 32,
        epochs: int = 1,
        shuffle: bool = True,
        validation_data: Optional[tuple] = None,
        callbacks: Optional[Sequence[Callback]] = None,
        verbose: int = 0,
        initial_epoch: int = 0,
        train=None,
    ) -> History:
        """Train for ``epochs`` passes over ``(x, y)``.

        Per-epoch logs hold the running mean of batch losses/metrics plus
        ``val_*`` entries when ``validation_data`` is given. Returns the
        ``History`` callback, as Keras does.

        ``x`` may instead be an
        :class:`repro.ingest.prefetch.EpochPrefetcher` (with ``y=None``):
        each epoch's already-shuffled ``(x, y)`` pair is pulled from the
        prefetcher's background loader while the previous epoch
        computes, the prefetcher's epoch count wins over ``epochs``, and
        the prefetcher is closed when the fit ends — including on a
        mid-epoch exception, so no loader thread outlives the fit. The
        per-run :class:`~repro.ingest.prefetch.PrefetchStats` land on
        ``self.last_prefetch_stats``.

        ``train`` is an optional :class:`repro.train.TrainOptions`; with
        ``overlap=True`` on a model with parameters under a multi-rank
        distributed optimizer, an :class:`repro.overlap.OverlapScheduler`
        is installed for the duration of the fit, overlapping each
        step's gradient allreduce with its backward pass.
        """
        self._require_compiled()
        prefetcher = x if isinstance(x, EpochPrefetcher) else None
        if prefetcher is not None:
            if y is not None:
                raise ValueError("y must be None when x is an EpochPrefetcher")
            if prefetcher.epochs_remaining <= 0:
                raise ValueError("prefetcher has no epochs left to train on")
        else:
            if y is None:
                raise ValueError("y is required unless x is an EpochPrefetcher")
            if len(x) != len(y):
                raise ValueError(
                    f"x and y disagree on length: {len(x)} vs {len(y)}"
                )
            if len(x) == 0:
                raise ValueError("fit called with empty dataset")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {epochs}")

        history = History()
        cb_list = CallbackList(list(callbacks or []) + [history])
        cb_list.set_model(self)

        overlap = None
        if train is not None and train.overlap and self._overlap is None:
            overlap = OverlapScheduler.maybe_install(
                self, self.optimizer, train=train
            )
        try:
            if prefetcher is not None:
                return self._fit_prefetched(
                    prefetcher, batch_size, validation_data,
                    cb_list, history, verbose, initial_epoch,
                )
            return self._fit_loop(
                x, y, batch_size, epochs, shuffle, validation_data,
                cb_list, history, verbose, initial_epoch,
            )
        finally:
            if overlap is not None:
                overlap.close()
                self.last_overlap_stats = overlap.stats

    def _epoch_pass(self, x, y, order, batch_size, cb_list) -> dict[str, float]:
        """One pass over ``(x, y)`` in ``order``; mean of batch logs."""
        sums: dict[str, float] = {}
        batches = 0
        for start in range(0, len(x), batch_size):
            idx = order[start : start + batch_size]
            cb_list.on_batch_begin(batches, {"size": len(idx)})
            logs = self.train_on_batch(x[idx], y[idx])
            cb_list.on_batch_end(batches, logs)
            for key, value in logs.items():
                sums[key] = sums.get(key, 0.0) + value
            batches += 1
        return {key: value / batches for key, value in sums.items()}

    def _close_epoch(
        self, epoch, epoch_logs, t0, batch_size, validation_data,
        cb_list, verbose, last_epoch,
    ) -> None:
        if validation_data is not None:
            vx, vy = validation_data
            val = self.evaluate(vx, vy, batch_size=batch_size)
            epoch_logs.update({f"val_{key}": value for key, value in val.items()})
        epoch_logs["epoch_time"] = time.perf_counter() - t0
        cb_list.on_epoch_end(epoch, epoch_logs)
        if verbose:
            stats = " ".join(f"{key}={value:.4f}" for key, value in epoch_logs.items())
            print(f"epoch {epoch + 1}/{last_epoch}: {stats}")

    def _fit_loop(
        self, x, y, batch_size, epochs, shuffle, validation_data,
        cb_list, history, verbose, initial_epoch,
    ) -> History:
        n = len(x)
        cb_list.on_train_begin({})
        for epoch in range(initial_epoch, initial_epoch + epochs):
            t0 = time.perf_counter()
            cb_list.on_epoch_begin(epoch, {})
            order = self._shuffle_rng.permutation(n) if shuffle else np.arange(n)
            epoch_logs = self._epoch_pass(x, y, order, batch_size, cb_list)
            self._close_epoch(
                epoch, epoch_logs, t0, batch_size, validation_data,
                cb_list, verbose, initial_epoch + epochs,
            )
        self._end_training(cb_list)
        return history

    def _fit_prefetched(
        self, prefetcher, batch_size, validation_data,
        cb_list, history, verbose, initial_epoch,
    ) -> History:
        """Epochs fed by an EpochPrefetcher: already-shuffled pairs
        arrive from the background loader; no extra shuffle here."""
        epochs = prefetcher.epochs_remaining
        cb_list.on_train_begin({})
        try:
            for epoch in range(initial_epoch, initial_epoch + epochs):
                t0 = time.perf_counter()
                cb_list.on_epoch_begin(epoch, {})
                ex, ey = prefetcher.next_epoch()
                order = np.arange(len(ex))
                epoch_logs = self._epoch_pass(ex, ey, order, batch_size, cb_list)
                self._close_epoch(
                    epoch, epoch_logs, t0, batch_size, validation_data,
                    cb_list, verbose, initial_epoch + epochs,
                )
        finally:
            prefetcher.close()
            self.last_prefetch_stats = prefetcher.stats
        self._end_training(cb_list)
        return history

    def _end_training(self, cb_list) -> None:
        """Close a fit: the callbacks see the end of training.

        The optimizer state stays as the last step left it: a
        distributed owner step leaves each rank state for the elements
        it owns only, and a reader of the whole state (a checkpoint)
        calls ``self.optimizer.gather_state(self.arena)`` on every rank
        first."""
        cb_list.on_train_end({})

    def evaluate(self, x: np.ndarray, y: np.ndarray, batch_size: int = 256) -> dict[str, float]:
        """Compute loss and metrics on ``(x, y)`` in inference mode.

        The metrics read the predictions first; the loss then works in
        the prediction array itself when ``y`` shares its shape, so no
        second array of that size is allocated. ``y`` is not cast
        whole: a float64 ``y`` meets the model-dtype predictions inside
        each ufunc.
        """
        self._require_compiled()
        y_pred = self.predict(x, batch_size=batch_size)
        metrics = {name: fn(y, y_pred) for name, fn in zip(self.metric_names, self.metrics)}
        work = y_pred if np.shape(y) == y_pred.shape else None
        loss = self.loss.value(y, y_pred, out=work) + self._regularization_penalty()
        return {"loss": loss, **metrics}

    # -- introspection ---------------------------------------------------------
    def summary(self) -> str:
        """Keras-style text summary of the layer stack."""
        self._require_built()
        lines = [f"Model: {self.name}", "-" * 58]
        lines.append(f"{'Layer':<28}{'Output shape':<18}{'Params':>10}")
        for layer in self.layers:
            lines.append(
                f"{layer.name:<28}{str(layer.output_shape):<18}{layer.param_count():>10}"
            )
        lines.append("-" * 58)
        lines.append(f"Total params: {self.count_params()}")
        return "\n".join(lines)

    # -- guards ------------------------------------------------------------------
    def _require_built(self) -> None:
        if not self.built:
            raise RuntimeError("model not built; call build(input_shape) first")

    def _require_compiled(self) -> None:
        self._require_built()
        if self.optimizer is None or self.loss is None:
            raise RuntimeError("model not compiled; call compile() first")
