"""Keras-side Horovod callbacks.

``BroadcastGlobalVariablesCallback(0)`` is the paper's
``hvd.BroadcastGlobalVariablesHook(0)``: added to the model's callback
list, it broadcasts rank 0's weights to every rank at the start of
training, "ensuring consistent initialization of all workers when
training is started with random weights."

``ManagedCheckpointCallback`` implements the paper's stated future
work ("checkpoint/restart features … for fault tolerance"): rank 0
writes a full model+optimizer checkpoint every N epochs through a
:class:`repro.resilience.CheckpointManager`, and
:meth:`~repro.resilience.CheckpointManager.restore_distributed` restores
it on rank 0 and re-broadcasts it (:func:`broadcast_restored`) so every
rank resumes consistently.
"""

from __future__ import annotations

from typing import Optional

from repro.hvd import ops as _ops
from repro.hvd import runtime as _rt
from repro.nn.callbacks import Callback
from repro.nn.serialization import capture_rng_state, restore_rank_rng

__all__ = [
    "BroadcastGlobalVariablesCallback",
    "ManagedCheckpointCallback",
    "FaultInjectionCallback",
    "broadcast_restored",
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


class ManagedCheckpointCallback(Callback):
    """Rank 0 checkpoints through a :class:`~repro.resilience.CheckpointManager`
    every N epochs.

    Only the root writes (the standard Horovod pattern — all ranks hold
    identical weights after each allreduced step, so one copy suffices).
    Every rank first gathers the optimizer state the owner step leaves
    partial (:meth:`DistributedOptimizer.gather_state
    <repro.hvd.DistributedOptimizer.gather_state>`), so the root writes
    the whole state, and every rank barriers on the epoch boundary so no
    rank races ahead of a half-finished write. The manager makes the
    write atomic, records its checksum in a manifest and retains the
    last N checkpoints, so an injected crash mid-write or a corrupted
    file can never poison the restart path.

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

    def on_epoch_end(self, epoch, logs=None):
        if (epoch + 1) % self.every_n_epochs != 0:
            return
        self.model.optimizer.gather_state(self.model.arena)
        rng_state = capture_rng_state(self.model)
        if _rt.size() > 1:
            states = _rt.comm().gather(rng_state, root=self.root)
        else:
            states = [rng_state]
        if _rt.rank() == self.root:
            self.manager.save(
                self.model, epoch, extra_state={"rank_rng": states}
            )
        if _rt.size() > 1:
            # barrier so no rank races ahead of a half-written checkpoint
            _rt.comm().barrier()


class FaultInjectionCallback(Callback):
    """Fire a :class:`repro.resilience.FaultInjector`'s training-time faults.

    Bridges the Keras-style callback lifecycle to the injector's hook
    points: epoch begin (stalls), batch begin
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


def broadcast_restored(model, meta: Optional[dict], root: int = 0) -> Optional[dict]:
    """Hand the checkpoint ``root`` restored to every rank; returns its
    metadata everywhere (None everywhere when ``root`` restored nothing).

    Call it on every rank right after ``root`` loaded a checkpoint into
    ``model`` (``meta`` is ignored elsewhere). It broadcasts the
    metadata, the weights, the optimizer state and its scalars, and
    restores each rank's RNG streams where the checkpoint carries them,
    so a resumed run continues exactly where the checkpointed one was.
    """
    if _rt.size() > 1:
        meta = _ops.broadcast(meta, root=root, name="checkpoint_meta")
        if meta is None:
            return None
        _ops.broadcast_weights(model, root=root)
        opt = getattr(model.optimizer, "base", model.optimizer)
        # a broadcast hands every rank the root's object itself, and a
        # step rewrites the state dicts it was loaded into: the root
        # sends copies of its arrays, each rank loads its own dicts
        state = None
        if _rt.rank() == root:
            state = {p: {k: v.copy() for k, v in slots.items()} for p, slots in opt._state.items()}
        state = _ops.broadcast(state, root=root, name="checkpoint_state")
        if _rt.rank() != root:
            opt.load_state({p: dict(slots) for p, slots in state.items()})
            opt.lr = float(meta["lr"])
            opt.iterations = int(meta["iterations"])
    if meta is not None:
        restore_rank_rng(model, meta, _rt.rank())
    return meta
