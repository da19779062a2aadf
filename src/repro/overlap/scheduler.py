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
   layers have all completed, submitting each to its channel;
3. one :class:`~repro.worker.Worker` per *channel*
   (``TrainOptions.overlap_channels``) runs its buckets' chunked
   allreduce schedules, in submission order, through this rank's
   :class:`~repro.comms.CollectiveEngine` while backward continues;
   each channel owns a private engine tag namespace (``tag_shift``), so
   a small late bucket travels beside a large in-flight one instead of
   queueing behind it;
4. a **drain fence** in :meth:`OverlapScheduler.finish_step` blocks the
   step until every bucket has landed (and fails it after
   ``DRAIN_TIMEOUT_S``) — so the step stays bit-identical to the
   serialized step (same buffers, same schedules, same canonical
   reduction order, only earlier).

Each channel runs the distributed step's one order for its bucket,
:meth:`CollectiveEngine.allreduce_update
<repro.comms.CollectiveEngine.allreduce_update>`: the bucket's slice
is reduced *and updated* while backward continues, so the fence leaves
nothing to do. :meth:`begin_step` opens the step with
:meth:`DistributedOptimizer.begin_step
<repro.hvd.DistributedOptimizer.begin_step>` before the first bucket
can update: it advances the iteration count, readies the optimizer
state for this step's owners and says whether every rank owns
everything. Each channel updates with its own work buffers.

A plan of one bucket cannot overlap anything: its bucket is released by
the last backward event. The scheduler then starts no channel and runs
the bucket in :meth:`finish_step`, on the rank thread.

**Cross-rank ordering.** Every rank must start a tag namespace's
collectives in the same order, or rings deadlock. Release events are
backward layer-completions, identical on every rank, and each submits
its bucket group in priority order (early model positions first) to
channel ``index % channels``, so every channel runs the same sequence
on every rank, with no coordination.

Per-bucket telemetry lands as ``overlap_hidden`` (bucket comm time that
ran concurrently with backward) and ``overlap_wait`` (the exposed
remainder the fence waited out) spans, split by
:func:`repro.worker.split_hidden`; the simulator's overlapped timeline
prices the same split with
:func:`repro.sim.computemodel.exposed_comm_seconds`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.train import DEFAULT_TRAIN_OPTIONS, TrainOptions
from repro.worker import Job, Worker, split_hidden

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


class OverlapScheduler:
    """Per-rank compute/communication overlap for one model + optimizer.

    Create (or :meth:`maybe_install`) on an initialized rank thread;
    the constructor reads the rank's collective engine, tracer, rank and
    fusion capacity from the distributed ``optimizer`` and makes the
    channel workers (none for a one-bucket plan). ``begin_step`` arms the step before backward,
    the model's backward hooks release buckets, ``finish_step`` is the
    drain fence the distributed optimizer calls in place of its
    serialized loop.
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
        self.channels = min(self.train.overlap_channels, max(1, len(self._buckets)))
        #: whether this step's buckets ask for whole ownership (set per
        #: step: it depends on the weight broadcast, which follows
        #: construction)
        self._whole = True
        #: per-channel optimizer work buffers: channels update at once
        self._scratch: List[dict] = [{} for _ in range(self.channels)]
        self._pending: set = set()
        self._active = False
        self._closed = False
        #: a bucket of this step failed: the channels skip the rest
        self._failed = False
        #: bucket index -> its job, in submission order, this step
        self._jobs: Dict[int, Job] = {}
        self._step = 0
        self._installed = False
        # one bucket: nothing to overlap, so no channel (see finish_step)
        self._workers = [
            Worker(f"overlap-worker-r{self._rank}c{slot}")
            for slot in range(self.channels if len(self._buckets) > 1 else 0)
        ]

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
        self._pending = {b.index for b in self._buckets}
        self._jobs = {}
        self._failed = False
        self._step += 1
        # with the options the buckets run under, before backward
        # releases the first bucket to a channel
        self._whole = self.optimizer.begin_step(self._engine, self._arena, self.options)
        self._active = True

    def _on_layer_backward(self, layer) -> None:
        """Backward hook: release every bucket this layer completes."""
        if not self._active:
            return
        self._release(self._triggers.get(self._layer_pos.get(id(layer), -1), ()))

    def _release(self, group) -> None:
        """Submit each still-pending bucket of ``group`` to its channel."""
        for bucket in group:
            if bucket.index in self._pending:
                self._pending.discard(bucket.index)
                slot = bucket.index % self.channels
                self._jobs[bucket.index] = self._workers[slot].submit(
                    lambda bucket=bucket, slot=slot: self._reduce_bucket(bucket, slot)
                )

    def finish_step(self, arena=None) -> bool:
        """The drain fence: wait for every in-flight bucket, then record.

        Called by :meth:`DistributedOptimizer.apply_arena
        <repro.hvd.DistributedOptimizer.apply_arena>` in place of its
        serialized loop. Returns False when the scheduler
        did not own this step (overlap disarmed — single rank, or
        ``begin_step`` never ran), signalling the caller to fall back.
        """
        if not self._active:
            return False
        if arena is not None and arena is not self._arena:
            raise ValueError("finish_step called with a different arena")
        t_backward_end = time.perf_counter()
        self._active = False
        if not self._workers:
            job = Job(lambda: self._reduce_bucket(self._buckets[0]))
            job.run()
            job.wait()
            self._jobs = {self._buckets[0].index: job}
        else:
            # defensive residue: a bucket whose trigger never fired (a
            # layer skipped by this step's graph) still has to travel —
            # release leftovers as one final, deterministic group
            self._release(sorted(
                (b for b in self._buckets if b.index in self._pending),
                key=lambda b: (b.priority, b.index),
            ))
            deadline = t_backward_end + DRAIN_TIMEOUT_S
            error = None
            for job in self._jobs.values():
                try:
                    job.wait(deadline - time.perf_counter())
                except TimeoutError:
                    raise RuntimeError(
                        f"overlap drain fence timed out after {DRAIN_TIMEOUT_S}s with "
                        f"{sum(not j.done() for j in self._jobs.values())} buckets in flight"
                    ) from None
                except BaseException as exc:  # the step failed: raised below
                    error = error or exc
            if error is not None:
                raise error
        self.optimizer.allreduce_count += len(self._jobs)
        self._account(t_backward_end)
        return True

    def _account(self, t_backward_end: float) -> None:
        """Split the step's comm into hidden/exposed; emit spans."""
        jobs = [self._jobs[b.index] for b in self._buckets]
        attrs = (  # built only when there is a tracer
            dict(
                bucket=b.index,
                tensors=b.names[0] + (f"+{len(b.names) - 1}" if len(b.names) > 1 else ""),
                bytes=job.result, step=self._step, rank=self._rank,
            )
            for b, job in zip(self._buckets, jobs)
        )
        hidden, wait = split_hidden(jobs, t_backward_end, self._tracer, "overlap", attrs)
        self.stats.steps += 1
        self.stats.buckets += len(jobs)
        self.stats.comm_s += hidden + wait
        self.stats.hidden_s += hidden
        self.stats.wait_s += wait
        self.stats.last_delivery = sorted(self._jobs, key=lambda i: self._jobs[i].t1)

    # -- the channels -------------------------------------------------------
    def _reduce_bucket(self, bucket: GradientBucket, slot: int = 0) -> Optional[int]:
        """Reduce and update one slab slice on channel ``slot``'s worker
        (the rank thread for a one-bucket plan), in place: the engine's
        acknowledgements keep peers' reads safe. The channel's
        ``tag_shift`` keeps its engine messages out of every other
        channel's mailboxes. Returns the slice's gradient bytes, or None
        when the step already failed (the fence raises that failure).
        """
        if self._failed:
            return None
        try:
            slabs, update = self.optimizer.bucket_update(
                self._arena, bucket.start, bucket.stop, self._scratch[slot]
            )
            self._engine.allreduce_update(
                slabs, update, whole=self._whole, name="+".join(bucket.names),
                options=self.options, tag_shift=64 * (slot + 1),
            )
        except BaseException:
            self._failed = True  # the channels skip the step's other buckets
            raise
        return int(slabs[0].nbytes)

    # -- teardown -----------------------------------------------------------
    def close(self) -> None:
        """Stop the worker and detach hooks (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._active = False
        for worker in self._workers:
            worker.close()
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
