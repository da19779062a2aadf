"""Wait-free backprop: overlap gradient allreduce with the backward pass.

The serialized training step computes *all* gradients, then reduces
them, then updates — communication fully exposed on the critical path.
Shi et al.'s wait-free backpropagation observes that a gradient bucket
can start travelling the moment its last layer finishes backward, while
earlier layers are still computing. This module is that scheduler for
the arena-backed step:

1. :meth:`Sequential._backward <repro.nn.Sequential._backward>` fires a
   layer-completion hook after each layer's backward;
2. the hook releases every gradient bucket (an
   :meth:`~repro.nn.ParameterArena.fusion_groups` slab slice) whose
   layers have all completed, pushing the group onto a priority
   ready-queue;
3. background worker threads — one per *channel*
   (``TrainOptions.overlap_channels``) — pop buckets and fire their
   chunked allreduce schedules through this rank's
   :class:`~repro.comms.CollectiveEngine` while backward continues;
   each channel owns a private engine tag namespace (``tag_shift``), so
   a small late bucket travels beside a large in-flight one instead of
   queueing behind it;
4. a **drain fence** in :meth:`OverlapScheduler.finish_step` blocks the
   step until every bucket has landed (and fails it after
   ``DRAIN_TIMEOUT_S``) — so the step stays bit-identical to the
   serialized step (same buffers, same schedules, same canonical
   reduction order, only earlier).

Where the distributed optimizer allows the engine's owner step
(:meth:`DistributedOptimizer.owner_step
<repro.hvd.DistributedOptimizer.owner_step>`), a channel runs it for its
bucket: the bucket's slice is reduced *and updated* while backward
continues, and its gather carries the updated parameters only, so the
fence leaves nothing to do. The step's learning rate and iteration
count are then fixed in :meth:`begin_step`, before the first bucket can
update, and each channel updates with its own work buffers. The
optimizer state a bucket's owner step writes stays with its owner;
when a step will not run the owner step, the ``owner_step`` call in
:meth:`begin_step` first gathers it whole on every rank. Otherwise the
fence is followed by the base optimizer's fused update, as in the
serialized step.

A plan of one bucket cannot overlap anything: its bucket is released by
the last backward event. The scheduler then starts no channel thread
and runs the bucket in :meth:`finish_step`, on the rank thread.

**Cross-rank ordering.** Collectives sharing a tag namespace use
blocking rendezvous, so every rank must issue them in the *same order*
or rings deadlock. The ready-queue guarantees this without
coordination: its heap key is ``(release_event, priority)``, release
events are backward layer-completions — identical in content and order
on every rank — and each event pushes its whole bucket group
atomically. Whenever a worker pops, the smallest key present is the
next bucket of the canonical sequence ``sorted by (release_event,
priority)``, regardless of how far that rank's backward or worker has
progressed. Buckets are partitioned across channels by ``index %
channels`` — deterministic, so each channel's issue sequence is also
identical on every rank, and distinct channels cannot interfere because
their tag namespaces are disjoint. Priority therefore orders buckets
*released by the same event*: early model positions first, since the
next forward consumes them first; a global early-layers-first order is
impossible without a coordinator, because early layers finish backward
*last*.

Per-bucket telemetry lands as ``overlap_hidden`` (bucket comm time that
ran concurrently with backward) and ``overlap_wait`` (the exposed
remainder the fence waited out) spans, the split the simulator's
overlapped timeline prices with
:func:`repro.sim.computemodel.exposed_comm_seconds`.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.train import DEFAULT_TRAIN_OPTIONS, TrainOptions

__all__ = ["OverlapScheduler", "OverlapStats", "GradientBucket"]

#: seconds the pre-update drain fence waits for in-flight buckets
DRAIN_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class GradientBucket:
    """One fusion group of the gradient slab, with its release trigger."""

    index: int  #: position in fusion-group (slab) order
    start: int  #: slab slice start (scalars)
    stop: int  #: slab slice stop (scalars)
    names: Tuple[str, ...]  #: parameter names in the slice
    #: model position of the earliest layer contributing to the slice;
    #: backward runs last layer → first, so the bucket is complete when
    #: this layer's backward finishes
    trigger_pos: int
    #: ordering among buckets released by the same backward event
    priority: Tuple[int, ...]

    @property
    def size(self) -> int:
        return self.stop - self.start


@dataclass
class OverlapStats:
    """Accumulated overlap telemetry across the steps of one run."""

    steps: int = 0
    buckets: int = 0
    comm_s: float = 0.0  #: total bucket allreduce wall time
    hidden_s: float = 0.0  #: comm time concurrent with backward
    wait_s: float = 0.0  #: comm time the drain fence exposed
    #: bucket indices in processed order, for the most recent step
    last_delivery: List[int] = field(default_factory=list)

    @property
    def overlap_fraction(self) -> float:
        """Share of communication hidden behind backward (0 when idle)."""
        return self.hidden_s / self.comm_s if self.comm_s > 0 else 0.0

    def as_dict(self) -> dict:
        return {
            "steps": self.steps,
            "buckets": self.buckets,
            "comm_s": self.comm_s,
            "hidden_s": self.hidden_s,
            "wait_s": self.wait_s,
            "overlap_fraction": self.overlap_fraction,
        }


class OverlapScheduler:
    """Per-rank compute/communication overlap for one model + optimizer.

    Create (or :meth:`maybe_install`) on an initialized rank thread;
    the constructor reads the rank's collective engine, tracer, rank and
    fusion capacity from the distributed ``optimizer`` and spawns the
    channel workers (none for a one-bucket plan). ``begin_step`` arms the step before backward,
    the model's backward hooks release buckets, ``finish_step`` is the
    drain fence the distributed optimizer calls in place of its
    serialized ``reduce_arena``.
    """

    def __init__(
        self,
        model,
        optimizer,
        *,
        train: Optional[TrainOptions] = None,
    ):
        if model.arena is None:
            raise ValueError("overlap needs a model with parameters (an arena)")
        self.model = model
        self.optimizer = optimizer
        self.train = train if train is not None else DEFAULT_TRAIN_OPTIONS
        self.options = self.train.collective
        self.stats = OverlapStats()
        # captured on the rank thread: the worker thread cannot use the
        # optimizer's thread-local runtime accessors
        self._engine = optimizer.engine
        self._tracer = optimizer.tracer
        self._rank = optimizer.rank
        self._arena = model.arena
        self._buckets = self._plan_buckets(optimizer.fusion_bytes)
        #: trigger layer position → buckets it releases, priority-sorted
        self._triggers: Dict[int, List[GradientBucket]] = {}
        for b in self._buckets:
            self._triggers.setdefault(b.trigger_pos, []).append(b)
        for group in self._triggers.values():
            group.sort(key=lambda b: (b.priority, b.index))
        self._layer_pos = {id(layer): i for i, layer in enumerate(model.layers)}
        # channel count: fault tolerance and the flat path are
        # single-stream engine features — force one channel there so
        # their (well-tested) serial semantics are preserved
        opts = self.options
        serial_only = opts is not None and (
            opts.fault_tolerance is not None or opts.algorithm == "flat"
        )
        self.channels = 1 if serial_only else min(
            self.train.overlap_channels, max(1, len(self._buckets))
        )
        #: whether this step's buckets run the owner step (set per step:
        #: it needs the weight broadcast, which follows construction)
        self.owner_step = False
        self._lr = 0.0
        #: per-channel optimizer work buffers: channels update at once
        self._scratch: List[dict] = [{} for _ in range(self.channels)]

        # step state, guarded by one condition variable shared with the
        # workers: per-channel heaps of (release_event, within-group
        # order, bucket idx); bucket → channel by index % channels
        self._cond = threading.Condition()
        self._heaps: List[List[Tuple[int, int, int]]] = [
            [] for _ in range(self.channels)
        ]
        self._pending: set = set()
        self._event = 0
        self._done = 0
        self._active = False
        self._closed = False
        self._error: Optional[BaseException] = None
        #: per-bucket (t_start, t_end, nbytes) of the current step
        self._records: Dict[int, Tuple[float, float, int]] = {}
        self._delivery: List[int] = []
        self._step = 0
        self._installed = False
        # one bucket: nothing to overlap, so no thread (see finish_step)
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                args=(slot,),
                name=f"overlap-worker-r{self._rank}c{slot}",
                daemon=True,
            )
            for slot in range(self.channels if len(self._buckets) > 1 else 0)
        ]
        for w in self._workers:
            w.start()

    # -- construction -------------------------------------------------------
    @classmethod
    def maybe_install(cls, model, optimizer, *, train) -> "OverlapScheduler | None":
        """Create + install a scheduler when the configuration supports it.

        Returns None (serialized fallback) when overlap is off, the
        model has no arena, the optimizer is not overlap-capable, or the
        rank thread is not running under an initialized multi-rank hvd.
        """
        if train is None or not train.overlap:
            return None
        if model.arena is None or model.optimizer is None:
            return None
        if not hasattr(optimizer, "attach_overlap"):
            return None
        if optimizer.world_size < 2:
            return None
        sched = cls(model, optimizer, train=train)
        sched.install()
        return sched

    def _plan_buckets(self, capacity_bytes: int) -> List[GradientBucket]:
        """Fusion groups annotated with trigger layer and priority."""
        pos: Dict[str, int] = {}
        for i, layer in enumerate(self.model.layers):
            for key in layer.params:
                pos[f"{layer.name}/{key}"] = i
        buckets: List[GradientBucket] = []
        for idx, (start, stop, names) in enumerate(
            self._arena.fusion_groups(capacity_bytes)
        ):
            trigger = min(pos[n] for n in names)
            buckets.append(
                GradientBucket(
                    index=idx,
                    start=start,
                    stop=stop,
                    names=tuple(names),
                    trigger_pos=trigger,
                    priority=(trigger, start),
                )
            )
        return buckets

    def install(self) -> None:
        """Register the backward hook and attach to the optimizer."""
        if self._installed:
            return
        if self._workers:
            self.model._backward_hooks.append(self._on_layer_backward)
        self.model._overlap = self
        self.optimizer.attach_overlap(self)
        self._installed = True

    # -- the step -----------------------------------------------------------
    def begin_step(self) -> None:
        """Arm the scheduler for one backward pass (rank thread)."""
        if self._closed or self.optimizer.world_size < 2:
            return
        with self._cond:
            if self._error is not None:
                raise self._drain_error()
            self._pending = {b.index for b in self._buckets}
            self._records = {}
            self._delivery = []
            self._done = 0
            self._event = 0
            self._step += 1
            # decided with the options the buckets run under
            self.owner_step = self.optimizer.owner_step(
                self._engine, self._arena, self.options
            )
            if self.owner_step:
                # before backward releases the first bucket to a channel
                self._lr = self.optimizer.base.prepare_arena_step(self._arena)
            self._active = True

    def _on_layer_backward(self, layer) -> None:
        """Backward hook: release every bucket this layer completes."""
        if not self._active:
            return
        group = self._triggers.get(self._layer_pos.get(id(layer), -1))
        if not group:
            return
        with self._cond:
            event = self._event
            self._event += 1
            released = False
            for k, bucket in enumerate(group):
                if bucket.index in self._pending:
                    self._pending.discard(bucket.index)
                    heapq.heappush(
                        self._heaps[bucket.index % self.channels],
                        (event, k, bucket.index),
                    )
                    released = True
            if released:
                self._cond.notify_all()

    def finish_step(self, arena=None) -> bool:
        """The drain fence: wait for every in-flight bucket, then record.

        Called by :meth:`DistributedOptimizer.apply_arena
        <repro.hvd.DistributedOptimizer.apply_arena>` in place of the
        serialized ``reduce_arena``. Returns False when the scheduler
        did not own this step (overlap disarmed — single rank, or
        ``begin_step`` never ran), signalling the caller to fall back.
        """
        if not self._active:
            return False
        if arena is not None and arena is not self._arena:
            raise ValueError("finish_step called with a different arena")
        t_backward_end = time.perf_counter()
        if not self._workers:
            try:
                self._reduce_bucket(self._buckets[0])
            finally:
                self._active = False
            self._account(self._records, self._delivery, t_backward_end)
            return True
        deadline = t_backward_end + DRAIN_TIMEOUT_S
        with self._cond:
            # defensive residue: a bucket whose trigger never fired (a
            # layer skipped by this step's graph) still has to travel —
            # release leftovers as one final, deterministic group
            leftovers = sorted(
                (b for b in self._buckets if b.index in self._pending),
                key=lambda b: (b.priority, b.index),
            )
            if leftovers:
                event = self._event
                self._event += 1
                for k, bucket in enumerate(leftovers):
                    self._pending.discard(bucket.index)
                    heapq.heappush(
                        self._heaps[bucket.index % self.channels],
                        (event, k, bucket.index),
                    )
                self._cond.notify_all()
            while self._done < len(self._buckets) and self._error is None:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    self._active = False
                    raise RuntimeError(
                        f"overlap drain fence timed out after "
                        f"{DRAIN_TIMEOUT_S}s with "
                        f"{len(self._buckets) - self._done} buckets in flight"
                    )
                self._cond.wait(timeout=remaining)
            self._active = False
            if self._error is not None:
                raise self._drain_error()
            records = dict(self._records)
            delivery = list(self._delivery)
        self._account(records, delivery, t_backward_end)
        return True

    def _drain_error(self) -> BaseException:
        error, self._error = self._error, None
        return error

    def _account(self, records, delivery, t_backward_end: float) -> None:
        """Split the step's comm into hidden/exposed; emit spans.

        The stats use the *union* of the bucket intervals, not their
        sum: buckets in flight at the fence wait concurrently, so
        summing per-bucket wall time would overstate both the comm and
        its exposed tail. The union is exactly the wall-clock time the
        step spent communicating; the part after ``t_backward_end`` is
        what the drain fence genuinely cost.
        """
        self.stats.steps += 1
        self.stats.last_delivery = delivery
        # merge [t0, t1) bucket intervals into their union
        union_hidden = union_wait = 0.0
        cur0 = cur1 = None
        for t0, t1, _ in sorted(records.values()):
            if cur1 is None or t0 > cur1:
                if cur1 is not None:
                    union_hidden += max(0.0, min(cur1, t_backward_end) - cur0)
                    union_wait += max(0.0, cur1 - max(cur0, t_backward_end))
                cur0, cur1 = t0, t1
            else:
                cur1 = max(cur1, t1)
        if cur1 is not None:
            union_hidden += max(0.0, min(cur1, t_backward_end) - cur0)
            union_wait += max(0.0, cur1 - max(cur0, t_backward_end))
        self.stats.comm_s += union_hidden + union_wait
        self.stats.hidden_s += union_hidden
        self.stats.wait_s += union_wait
        for bucket in self._buckets:
            t0, t1, nbytes = records[bucket.index]
            hidden = max(0.0, min(t1, t_backward_end) - t0)
            wait = max(0.0, t1 - max(t0, t_backward_end))
            self.stats.buckets += 1
            if self._tracer is not None:
                label = bucket.names[0] + (
                    f"+{len(bucket.names) - 1}" if len(bucket.names) > 1 else ""
                )
                attrs = dict(
                    bucket=bucket.index, tensors=label, bytes=nbytes,
                    step=self._step, rank=self._rank,
                )
                self._tracer.record_span(
                    "overlap_hidden", t0, hidden,
                    category="overlap", absolute=True, **attrs,
                )
                self._tracer.record_span(
                    "overlap_wait", max(t0, t_backward_end), wait,
                    category="overlap", absolute=True, **attrs,
                )

    # -- the workers --------------------------------------------------------
    def _worker_loop(self, slot: int) -> None:
        by_index = {b.index: b for b in self._buckets}
        heap = self._heaps[slot]
        while True:
            with self._cond:
                while not heap and not self._closed:
                    self._cond.wait()
                if not heap:
                    return  # closed and drained
                bucket = by_index[heapq.heappop(heap)[-1]]
                broken = self._error is not None
            if broken:
                # the engine already failed this step; just mark the
                # bucket done so the fence can observe and re-raise
                with self._cond:
                    self._done += 1
                    self._cond.notify_all()
                continue
            try:
                self._reduce_bucket(bucket, slot)
            except BaseException as exc:  # surfaced at the fence
                with self._cond:
                    self._error = exc
                    self._done += 1
                    self._cond.notify_all()
            else:
                with self._cond:
                    self._done += 1
                    self._cond.notify_all()

    def _reduce_bucket(self, bucket: GradientBucket, slot: int = 0) -> None:
        """Reduce one slab slice on channel ``slot``'s thread (the rank
        thread for a one-bucket plan).

        The owner step reduces and updates the live slices in place
        (the engine's acknowledgements keep peers' reads safe).
        Otherwise the engine reduces a *copy* of the live gradient view:
        its zero-copy sends hand raw buffer views to peer mailboxes, and
        the in-place ``copyto`` at completion must never overwrite data
        a remote rank is still reading. The channel's ``tag_shift``
        keeps its engine messages out of every other channel's
        mailboxes.
        """
        name = "+".join(bucket.names)
        shift = 64 * (slot + 1)
        view = self._arena.grads_flat[bucket.start : bucket.stop]
        if self.owner_step:
            slabs, update = self.optimizer.bucket_update(
                self._arena, bucket.start, bucket.stop, self._lr,
                self._scratch[slot],
            )
            t0 = time.perf_counter()
            self._engine.allreduce_update(
                slabs, update, name=name, options=self.options, tag_shift=shift
            )
            t1 = time.perf_counter()
        else:
            buf = view.copy()
            t0 = time.perf_counter()
            reduced = self._engine.allreduce(
                buf, op="mean", name=name, options=self.options, tag_shift=shift
            )
            t1 = time.perf_counter()
            np.copyto(view, reduced)
        with self._cond:
            # channels finish buckets concurrently: count under the lock
            self.optimizer.allreduce_count += 1
            self._records[bucket.index] = (t0, t1, int(view.nbytes))
            self._delivery.append(bucket.index)

    # -- teardown -----------------------------------------------------------
    def close(self) -> None:
        """Stop the worker and detach hooks (idempotent)."""
        if self._closed:
            return
        with self._cond:
            self._closed = True
            self._active = False
            self._cond.notify_all()
        for w in self._workers:
            w.join(timeout=DRAIN_TIMEOUT_S)
        if self._installed:
            try:
                self.model._backward_hooks.remove(self._on_layer_backward)
            except ValueError:
                pass
            if getattr(self.model, "_overlap", None) is self:
                self.model._overlap = None
            detach = getattr(self.optimizer, "detach_overlap", None)
            if detach is not None:
                detach(self)
            self._installed = False

    def __repr__(self):
        return (
            f"OverlapScheduler(rank={self._rank}, "
            f"buckets={len(self._buckets)}, channels={self.channels})"
        )
