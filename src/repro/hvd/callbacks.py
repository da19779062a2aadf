"""Keras-side Horovod callbacks.

``BroadcastGlobalVariablesCallback(0)`` is the paper's
``hvd.BroadcastGlobalVariablesHook(0)``: added to the model's callback
list, it broadcasts rank 0's weights to every rank at the start of
training, "ensuring consistent initialization of all workers when
training is started with random weights."

``CheckpointCallback`` implements the paper's stated future work
("checkpoint/restart features … for fault tolerance"): rank 0 writes a
full model+optimizer checkpoint every N epochs, and
:func:`resume_from_checkpoint` restores it and re-broadcasts so every
rank resumes consistently.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.hvd import ops as _ops
from repro.hvd import runtime as _rt
from repro.nn.callbacks import Callback
from repro.nn.serialization import (
    capture_rng_state,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "BroadcastGlobalVariablesCallback",
    "MetricAverageCallback",
    "CheckpointCallback",
    "ManagedCheckpointCallback",
    "FaultInjectionCallback",
    "resume_from_checkpoint",
]


class BroadcastGlobalVariablesCallback(Callback):
    """Broadcast initial weights from ``root`` on train begin."""

    def __init__(self, root: int = 0):
        super().__init__()
        if root < 0:
            raise ValueError(f"root rank must be non-negative, got {root}")
        self.root = root
        self.broadcast_done = False

    def on_train_begin(self, logs=None):
        if _rt.size() > 1:
            _ops.broadcast_weights(self.model, root=self.root)
        self.broadcast_done = True


class MetricAverageCallback(Callback):
    """Average epoch metrics across ranks (hvd.callbacks analog).

    Rewrites each epoch's logs in place with the allreduce mean, so
    every rank reports the same global metric — used when ranks train
    on different shards and a single curve is wanted. ``options``
    overrides the run-level :class:`~repro.comms.CollectiveOptions` for
    the metric reduction (metrics are tiny: a latency-bound algorithm
    may suit them better than the gradients' schedule).
    """

    def __init__(self, options=None):
        super().__init__()
        self.options = options

    def on_epoch_end(self, epoch, logs=None):
        if logs is None or _rt.size() == 1:
            return
        keys = sorted(k for k, v in logs.items() if isinstance(v, (int, float)))
        import numpy as np

        vec = np.array([float(logs[k]) for k in keys])
        avg = _ops.allreduce(
            vec, op="mean", name="epoch_metrics", options=self.options
        )
        for key, value in zip(keys, avg):
            logs[key] = float(value)


class CheckpointCallback(Callback):
    """Rank 0 writes a model+optimizer checkpoint every N epochs.

    Only rank 0 writes (the standard Horovod pattern — all ranks hold
    identical weights after each allreduced step, so one copy suffices).
    """

    def __init__(self, path: str, every_n_epochs: int = 1, root: int = 0):
        super().__init__()
        if every_n_epochs <= 0:
            raise ValueError(
                f"every_n_epochs must be positive, got {every_n_epochs}"
            )
        self.path = str(path)
        self.every_n_epochs = int(every_n_epochs)
        self.root = root
        self.epochs_written: list[int] = []

    def on_epoch_end(self, epoch, logs=None):
        if (epoch + 1) % self.every_n_epochs != 0:
            return
        if _rt.rank() == self.root:
            save_checkpoint(self.model, self.path, epoch=epoch)
        self.epochs_written.append(epoch)
        if _rt.size() > 1:
            # barrier so no rank races ahead of a half-written checkpoint
            _rt.comm().barrier()


class ManagedCheckpointCallback(Callback):
    """Rank 0 checkpoints through a :class:`~repro.resilience.CheckpointManager`.

    The manager adds what the plain :class:`CheckpointCallback` lacks
    for fault tolerance: atomic writes, a checksummed manifest, and
    retention of the last N checkpoints — so an injected crash mid-write
    or a corrupted file can never poison the restart path. As with the
    plain callback, only the root writes and every rank barriers on the
    epoch boundary so no rank races ahead of a half-finished write.

    Every rank's RNG streams (shuffle order, dropout masks) are
    gathered to the root and stored in the checkpoint, so a resume
    restores not just the weights but the *stochastic position* of each
    rank — the piece that makes resumed training bit-identical to an
    uninterrupted run.
    """

    def __init__(self, manager, every_n_epochs: int = 1, root: int = 0):
        super().__init__()
        if every_n_epochs <= 0:
            raise ValueError(
                f"every_n_epochs must be positive, got {every_n_epochs}"
            )
        self.manager = manager
        self.every_n_epochs = int(every_n_epochs)
        self.root = root
        self.epochs_written: list[int] = []

    def on_epoch_end(self, epoch, logs=None):
        if (epoch + 1) % self.every_n_epochs != 0:
            return
        rng_state = capture_rng_state(self.model)
        if _rt.size() > 1:
            states = _rt.comm().gather(rng_state, root=self.root)
        else:
            states = [rng_state]
        if _rt.rank() == self.root:
            self.manager.save(
                self.model, epoch, extra_state={"rank_rng": states}
            )
        self.epochs_written.append(epoch)
        if _rt.size() > 1:
            _rt.comm().barrier()


class FaultInjectionCallback(Callback):
    """Fire a :class:`repro.resilience.FaultInjector`'s training-time faults.

    Bridges the Keras-style callback lifecycle to the injector's hook
    points: epoch begin (stragglers, I/O stalls), batch begin
    (step-level faults), epoch end (crashes, collective failures). The
    injector is duck-typed — anything exposing ``on_epoch_begin(rank,
    epoch)``, ``on_step(rank, epoch, step)`` and ``on_epoch_end(rank,
    epoch)`` works — which keeps this module free of a resilience
    import cycle.
    """

    def __init__(self, injector):
        super().__init__()
        self.injector = injector
        self._epoch: Optional[int] = None

    def on_epoch_begin(self, epoch, logs=None):
        self._epoch = epoch
        self.injector.on_epoch_begin(_rt.rank(), epoch)

    def on_batch_begin(self, batch, logs=None):
        if self._epoch is not None:
            self.injector.on_step(_rt.rank(), self._epoch, batch)

    def on_epoch_end(self, epoch, logs=None):
        self.injector.on_epoch_end(_rt.rank(), epoch)


def resume_from_checkpoint(model, path, root: int = 0) -> Optional[dict]:
    """Restore a checkpoint on ``root`` and broadcast to every rank.

    Returns the checkpoint metadata (with the epoch to resume from), or
    None when the file does not exist (fresh start — callers can treat
    a missing checkpoint as epoch 0).
    """
    exists = os.path.exists(path) if _rt.rank() == root else None
    if _rt.size() > 1:
        exists = _ops.broadcast(exists, root=root, name="checkpoint_exists")
    if not exists:
        return None
    meta: Optional[dict] = None
    if _rt.rank() == root:
        meta = load_checkpoint(model, path)
    if _rt.size() > 1:
        meta = _ops.broadcast(meta, root=root, name="checkpoint_meta")
        _ops.broadcast_weights(model, root=root)
        # replicate optimizer scalar state so LR schedules line up
        opt = getattr(model.optimizer, "base", model.optimizer)
        opt.lr = float(meta["lr"])
        opt.iterations = int(meta["iterations"])
    return meta
