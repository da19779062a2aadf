"""DistributedOptimizer: the Horovod gradient-averaging wrapper.

Paper §2.3.2: "Wrap the original optimizer in the Horovod distributed
optimizer using hvd.DistributedOptimizer(optimizer). The distributed
optimizer delegates the gradient computation to the original optimizer,
averages gradients using the Allreduce, and then applies those averaged
gradients."

The step runs on the model's :class:`repro.nn.ParameterArena` in one
order: :meth:`Optimizer.prepare_arena_step
<repro.nn.optimizers.Optimizer.prepare_arena_step>` opens it, then each
fusion group (:meth:`~repro.nn.ParameterArena.fusion_groups`, a slab
slice of at most ``fusion_bytes``) runs the engine's
:meth:`~repro.comms.CollectiveEngine.allreduce_update`: the mean of the
slice, then its update. The whole step is configured by one
:class:`repro.train.TrainOptions` passed as ``train=``: its
``collective`` governs how reductions travel, and ``overlap=True`` lets
an attached :class:`repro.overlap.OverlapScheduler` run the groups on
its channels while backward continues; ``apply_arena`` then drains its
fence. The name-keyed ``apply_gradients`` of the base optimizers has no
distributed form.

**Ownership is the only switch.** Each rank updates the ranges the
engine says it owns (:meth:`repro.comms.CollectiveEngine.owned_ranges`):
1/W of the arena for ring and rhd, 1/``local_size`` for hierarchical,
the gather carrying the updated parameters only (ZeRO stage 1). Every
rank owns everything — the gradient is allreduced, then updated whole —
in a world of one, on a flat plan, under an emulated fabric, and when
this optimizer asks for it (``whole``):
when the ranks' parameters are not known to be identical (no weight
broadcast made ``arena.replicated``), or the base optimizer has no
slab kernel. Every rank ends the step with the same bits either way.

The optimizer state follows the ownership: the base optimizer keeps
state only for the ranges this rank updates, and a ``fit`` leaves it
that way. When a step's ranges differ from the state's,
:meth:`DistributedOptimizer.gather_state`, the consolidation
collective, makes it whole on every rank before the step partitions it
again; the checkpoint callback and any other reader of the whole state
call it too.
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
        #: the attached overlap scheduler, when the step is overlapped
        self._overlap = None
        #: (engine, options, ranges) of the steps the optimizer state is
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

    def apply_arena(self, arena) -> None:
        """Zero-copy Horovod step for arena-built models.

        Gradients already live in one contiguous slab laid out in fusion
        order, so there is nothing to pack: each fusion group is a slab
        *slice*, reduced and updated by
        :func:`repro.hvd.ops.allreduce_update` after :meth:`begin_step`.
        With an attached overlap scheduler that armed this step, the
        buckets already ran on its channels — the drain fence replaces
        the serialized loop, bit-identical to it: same buffers, same
        schedules, same canonical reduction order.
        """
        if self._overlap is not None and self._overlap.finish_step(arena):
            return
        engine = _rt.engine()
        world = engine.comm.size
        whole = self.begin_step(engine, arena, self.options)
        groups = arena.fusion_groups(self.fusion_bytes)
        for start, stop, names in groups:
            slabs, update = self.bucket_update(arena, start, stop)
            _ops.allreduce_update(
                slabs, update, whole=whole, name="+".join(names), options=self.options
            )
        if world > 1:
            self.allreduce_count += len(groups)

    def begin_step(self, engine, arena, options) -> bool:
        """Open one step of ``arena`` on ``engine`` under ``options``, the
        options its reductions will run with; returns ``whole``.

        ``whole`` asks the engine for whole ownership: ranks whose
        parameters no weight broadcast made identical
        (``arena.replicated``) each update their own, and a base
        optimizer without a slab kernel updates whole parameters only.
        The state rule: when this step's ranges differ from the ones the
        state is partitioned for, :meth:`gather_state` makes it whole,
        then it is partitioned to this step's. Then
        :meth:`Optimizer.prepare_arena_step
        <repro.nn.optimizers.Optimizer.prepare_arena_step>` advances the
        iteration count and readies the state slabs, before the first
        bucket updates. Call it once per step, on every rank, before the
        step updates.
        """
        whole = not (arena.replicated and self.base.slab_kernel)
        itemsize = arena.dtype.itemsize
        ranges = [
            (start + lo, start + hi)
            for start, stop, _ in arena.fusion_groups(self.fusion_bytes)
            for lo, hi in engine.owned_ranges(stop - start, itemsize, options, whole=whole)
        ]
        if self._owners is None or self._owners[2] != ranges:
            self.gather_state(arena)
            self.base.partition_state(arena, ranges)
        self._owners = None if self.base.state_is_whole else (engine, options, ranges)
        self.base.prepare_arena_step(arena)
        return whole

    @property
    def state_is_whole(self) -> bool:
        """False while this rank keeps optimizer state for the segments
        it owns only."""
        return self._owners is None

    def gather_state(self, arena) -> None:
        """Consolidate the optimizer state on every rank (a collective).

        After steps under partial ownership each rank's base optimizer
        holds state only for the segments it owns. This lays it out
        whole again (:meth:`Optimizer.unpartition_state
        <repro.nn.optimizers.Optimizer.unpartition_state>`) and, for
        each fusion group, replays the gather of those steps over the
        whole state slabs (:meth:`CollectiveEngine.gather_owned
        <repro.comms.CollectiveEngine.gather_owned>`), so every rank
        ends with the owners' bytes everywhere: the state
        allreduce-then-update leaves. A ``fit`` does not call it; the
        checkpoint callback and :meth:`begin_step` do, and so must any
        other reader of the whole state. Every rank must call it at the
        same point of training; a no-op when the state is whole.
        """
        if self._owners is None:
            return
        engine, options, _ = self._owners
        state = self.base.unpartition_state(arena)
        for start, stop, _ in arena.fusion_groups(self.fusion_bytes):
            engine.gather_owned([s[start:stop] for s in state], options=options)
        self._owners = None

    def bucket_update(self, arena, start: int, stop: int, scratch=None):
        """The :meth:`~repro.comms.CollectiveEngine.allreduce_update`
        operands of the slab slice ``[start, stop)``, in a step
        :meth:`begin_step` opened.

        Returns ``(slabs, update)``: the gradient and parameter slices,
        and the base optimizer's update of a sub-range, which also
        writes that sub-range of the state. The update reads the
        learning rate when it runs, and it may run on an overlap
        channel's thread. ``scratch`` is the caller's work-buffer dict:
        concurrent callers need their own.
        """
        slabs = (arena.grads_flat[start:stop], arena.params_flat[start:stop])

        def update(lo: int, hi: int) -> None:
            self.base._arena_step(
                arena, self.base._current_lr(), start=start + lo, stop=start + hi,
                scratch=scratch,
            )

        return slabs, update

    def reduce_arena(self, arena) -> None:
        """Allreduce-average the gradient slab, slice by fusion group,
        with no update (the first half of the step, for callers that
        time or apply it separately)."""
        if _rt.size() == 1:
            return
        for start, stop, names in arena.fusion_groups(self.fusion_bytes):
            view = arena.grads_flat[start:stop]
            reduced = _ops.allreduce(
                view, op="mean", name="+".join(names), options=self.options
            )
            self.allreduce_count += 1
            np.copyto(view, reduced)

    def __repr__(self):
        return f"DistributedOptimizer({self.base!r})"
