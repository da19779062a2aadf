"""DistributedOptimizer: the Horovod gradient-averaging wrapper.

Paper §2.3.2: "Wrap the original optimizer in the Horovod distributed
optimizer using hvd.DistributedOptimizer(optimizer). The distributed
optimizer delegates the gradient computation to the original optimizer,
averages gradients using the Allreduce, and then applies those averaged
gradients."

The step runs on the model's :class:`repro.nn.ParameterArena`: its
gradient slab is reduced in slices of at most ``fusion_bytes``
(:meth:`~repro.nn.ParameterArena.fusion_groups`), so each training step
issues one (or a few) large reductions rather than one per layer, with
nothing to pack. The whole step is configured by one
:class:`repro.train.TrainOptions` passed as ``train=``: its
``collective`` governs how reductions travel, and ``overlap=True`` lets
an attached :class:`repro.overlap.OverlapScheduler` take over the
reduction — ``apply_arena`` then drains the scheduler's fence instead
of issuing the serialized slab allreduces. The name-keyed
``apply_gradients`` of the base optimizers has no distributed form.

Where the rank's engine allows it (no fault
tolerance, no emulated fabric) and the base
optimizer has a slab kernel, each fusion group runs the engine's **owner step**
(:meth:`repro.comms.CollectiveEngine.allreduce_update`): every element
is updated once, by the rank that reduced it, and the gather carries
the updated parameters only, so a step moves an allreduce's bytes.
Every rank ends the step with the parameters allreduce-then-update
leaves. Its optimizer state is **partitioned** (ZeRO stage 1): the base
optimizer allocates state only for the element ranges the rank owns
(:meth:`repro.comms.CollectiveEngine.owned_ranges`, 1/W of the arena
for ring and rhd, 1/``local_size`` for hierarchical), and a ``fit``
leaves it that way. :meth:`DistributedOptimizer.gather_state` is the
consolidation collective: it makes the state whole on every rank, and
runs only where a reader needs it whole — before every checkpoint
write (the checkpoint callbacks call it), before any step that will
not run the owner step or runs it under other owners, and when the
caller asks. Those readers see the bytes allreduce-then-update leaves;
the next owner step partitions the state again.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.comms.options import DEFAULT_FUSION_BYTES
from repro.hvd import ops as _ops
from repro.hvd import runtime as _rt
from repro.nn.optimizers import Optimizer
from repro.train import DEFAULT_TRAIN_OPTIONS, TrainOptions

__all__ = ["DistributedOptimizer"]


class DistributedOptimizer(Optimizer):
    """Wraps a base optimizer; averages gradients over ranks first."""

    def __init__(self, base: Optimizer, *, train: Optional[TrainOptions] = None):
        if not isinstance(base, Optimizer):
            raise TypeError(f"expected an Optimizer, got {type(base)!r}")
        # Deliberately no super().__init__: lr/decay/state all proxy to base.
        self.base = base
        self.train = train if train is not None else DEFAULT_TRAIN_OPTIONS
        #: CollectiveOptions of this run's reductions
        #: (None = run-level options / engine defaults)
        self.options = self.train.collective
        #: byte capacity of one fused reduction (one slab slice)
        self.fusion_bytes = (
            DEFAULT_FUSION_BYTES if self.options is None else self.options.fusion_bytes
        )
        self.allreduce_count = 0
        #: (old_world, new_world) pairs for every elastic world change
        self.world_rescales: list = []
        self._world: Optional[int] = None
        #: the attached overlap scheduler, when the step is overlapped
        self._overlap = None
        #: (engine, options) of the owner steps the optimizer state is
        #: partitioned for on this rank; None while it is whole
        self._owners = None

    # -- learning-rate proxying (LR scaling must reach the base) -----------
    @property
    def lr(self) -> float:
        return self.base.lr

    @lr.setter
    def lr(self, value: float) -> None:
        self.base.lr = value

    @property
    def iterations(self) -> int:
        return self.base.iterations

    def scale_lr(self, factor: float) -> None:
        self.base.scale_lr(factor)

    # -- the calling rank's runtime, as an overlap scheduler reads it ------
    @property
    def engine(self):
        """The calling rank's collective engine."""
        return _rt.engine()

    @property
    def tracer(self):
        """The calling rank's bound tracer, or None when untraced."""
        return _rt.tracer()

    @property
    def rank(self) -> int:
        """The calling rank's index."""
        return _rt.rank()

    @property
    def world_size(self) -> int:
        """The calling rank's world size; 1 outside an initialized rank."""
        return _rt.size() if _rt.is_initialized() else 1

    # -- overlap attachment -------------------------------------------------
    def attach_overlap(self, scheduler) -> None:
        """Let an :class:`repro.overlap.OverlapScheduler` own the arena
        reduction; ``apply_arena`` drains its fence instead of issuing
        the serialized slab allreduces."""
        self._overlap = scheduler

    def detach_overlap(self, scheduler=None) -> None:
        """Return to the serialized reduction path."""
        if scheduler is None or self._overlap is scheduler:
            self._overlap = None

    # -- the Horovod step ---------------------------------------------------
    def apply_gradients(self, params, grads) -> None:
        """Not a distributed step: ranks reduce an arena's gradient slab."""
        raise TypeError(
            "DistributedOptimizer steps an arena-built model through "
            "apply_arena; the name-keyed apply_gradients has no "
            "distributed form"
        )

    def _reconcile_world(self) -> None:
        """Re-apply the linear LR rule when the world size changes.

        A fault-tolerant run that loses a rank keeps training on the
        survivors (elastic rebuild); the effective global batch shrinks
        with the world, so the learning rate follows it — the same
        linear scaling the benchmark applied at startup, applied to the
        ratio of the new world to the old.
        """
        world = _rt.size()
        if self._world is None:
            self._world = world
        elif world != self._world:
            self.scale_lr(world / self._world)
            self.world_rescales.append((self._world, world))
            self._world = world

    def apply_arena(self, arena) -> None:
        """Zero-copy Horovod step for arena-built models.

        Gradients already live in one contiguous slab laid out in fusion
        order, so there is nothing to pack: each fusion group is a slab
        *slice*. Under the owner step (:meth:`owner_step`) each slice is
        reduced and updated by :func:`repro.hvd.ops.allreduce_update`;
        otherwise it is allreduced, the mean copied back in place, and
        the base optimizer's fused update runs over the whole slab. With
        an attached overlap scheduler that armed this step, the buckets
        are already in flight (and, under the owner step, updated) — the
        drain fence replaces the serialized path, bit-identical to it:
        same buffers, same schedules, same canonical reduction order.
        """
        if self._overlap is not None and self._overlap.finish_step(arena):
            self._reconcile_world()
            if not self._overlap.owner_step:
                self.base.apply_arena(arena)
        elif _rt.size() > 1 and self.owner_step(_rt.engine(), arena, self.options):
            lr = self.base.prepare_arena_step(arena)
            for start, stop, names in arena.fusion_groups(self.fusion_bytes):
                slabs, update = self.bucket_update(arena, start, stop, lr)
                _ops.allreduce_update(
                    slabs, update, name="+".join(names), options=self.options
                )
                self.allreduce_count += 1
            self._reconcile_world()
        else:
            self.reduce_arena(arena)
            self.base.apply_arena(arena)

    def owner_step(self, engine, arena, options) -> bool:
        """Whether a step may run ``engine``'s owner step on ``arena``
        under ``options``, the options its reductions will run with;
        call it once per step, on every rank, before the step updates.

        Needs ranks whose parameters a weight broadcast made identical
        (``arena.replicated``), a base optimizer whose update is an
        elementwise slab kernel, and an engine that allows it under
        ``options`` (:meth:`CollectiveEngine.owner_step_ok
        <repro.comms.CollectiveEngine.owner_step_ok>`: the plain engine,
        no emulated fabric).

        The answer also readies the state for the step: when it is
        partitioned and this step will not run the owner step, or will
        run it under another engine or options (other owners),
        :meth:`gather_state` makes it whole first; an owner step then
        partitions it to the ranges this rank owns.
        """
        owner = bool(
            arena.replicated
            and self.base.slab_kernel
            and engine.owner_step_ok(options)
        )
        if self._owners is not None and (not owner or self._owners != (engine, options)):
            self.gather_state(arena)
        if owner and self._owners is None:
            self.base.partition_state(arena, self._owned_ranges(engine, arena, options))
            self._owners = (engine, options)
        return owner

    def _owned_ranges(self, engine, arena, options) -> list:
        """The arena elements this rank updates in an owner step: each
        fusion group's :meth:`CollectiveEngine.owned_ranges
        <repro.comms.CollectiveEngine.owned_ranges>`."""
        itemsize = arena.dtype.itemsize
        return [
            (start + lo, start + hi)
            for start, stop, _ in arena.fusion_groups(self.fusion_bytes)
            for lo, hi in engine.owned_ranges(stop - start, itemsize, options)
        ]

    @property
    def state_is_whole(self) -> bool:
        """False while owner steps keep this rank's optimizer state for
        the segments it owns only."""
        return self._owners is None

    def gather_state(self, arena) -> None:
        """Consolidate the optimizer state on every rank (a collective).

        After owner steps each rank's base optimizer holds state only
        for the segments it owns. This lays it out whole again
        (:meth:`Optimizer.unpartition_state
        <repro.nn.optimizers.Optimizer.unpartition_state>`) and, for
        each fusion group, replays the gather of those steps over the
        whole state slabs (:meth:`CollectiveEngine.gather_owned
        <repro.comms.CollectiveEngine.gather_owned>`), so every rank
        ends with the owners' bytes everywhere: the state
        allreduce-then-update leaves. A ``fit`` does not call it; the
        checkpoint callbacks and :meth:`owner_step` do, and so must any
        other reader of the whole state. Every rank must call it at the
        same point of training; a no-op when the state is whole.
        """
        if self._owners is None:
            return
        engine, options = self._owners
        state = self.base.unpartition_state(arena)
        for start, stop, _ in arena.fusion_groups(self.fusion_bytes):
            engine.gather_owned([s[start:stop] for s in state], options=options)
        self._owners = None

    def bucket_update(self, arena, start: int, stop: int, lr: float, scratch=None):
        """The owner-step operands of the slab slice ``[start, stop)``.

        Returns ``(slabs, update)`` for
        :meth:`~repro.comms.CollectiveEngine.allreduce_update`: the
        gradient and parameter slices, and the base optimizer's update
        of a sub-range at the step's learning rate ``lr`` (from
        :meth:`Optimizer.prepare_arena_step`), which also writes that
        sub-range of the state, held in the base optimizer's
        partitioned slabs. ``scratch`` is the caller's
        work-buffer dict: concurrent callers need their own.
        """
        slabs = (arena.grads_flat[start:stop], arena.params_flat[start:stop])

        def update(lo: int, hi: int) -> None:
            self.base._arena_step(
                arena, lr, start=start + lo, stop=start + hi, scratch=scratch
            )

        return slabs, update

    def reduce_arena(self, arena) -> None:
        """Allreduce-average the gradient slab, slice by fusion group."""
        if _rt.size() == 1:
            return
        for start, stop, names in arena.fusion_groups(self.fusion_bytes):
            view = arena.grads_flat[start:stop]
            reduced = _ops.allreduce(
                view, op="mean", name="+".join(names), options=self.options
            )
            self.allreduce_count += 1
            np.copyto(view, reduced)
        self._reconcile_world()

    def __repr__(self):
        return f"DistributedOptimizer({self.base!r})"
