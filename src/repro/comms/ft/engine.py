"""FaultTolerantEngine: the PR 5 collective engine under failure.

A drop-in subclass of :class:`repro.comms.engine.CollectiveEngine` that
runs every algorithm over an :class:`~repro.comms.ft.channel.FtChannel`
and wraps schedule execution in a recovery loop:

- **Retry** — a chunk that times out or fails its checksum is NACKed
  and retransmitted by the sender (inside the channel, invisible here).
- **Demote** — when retransmission gives up
  (:class:`~repro.resilience.TransientCollectiveError`) or the failure
  detector turns suspicious of a peer, the schedule steps down the
  ladder hierarchical → ring → flat; the demotion is a collective
  decision (broadcast on the control tag, every rank re-executes from
  its original input) and is recorded on the executed plan's
  ``demoted_from``/``demotion_reason``.
- **Rebuild** — when a peer is confirmed dead, the survivors run the
  JOIN/COMMIT consensus (:mod:`repro.comms.ft.rebuild`), adopt the
  shrunken communicator, re-plan on the surviving topology, and
  re-execute. The dead rank's contribution is gone; the survivors'
  result is the canonical reduction over surviving inputs — bitwise
  identical to a fresh flat allreduce over the same survivors.

**The completion fence.** Without one, a rank can finish a collective
(holding the full-group result) before a peer's death is detected,
while the stalled survivors rebuild and re-execute with survivor-only
data — silent divergence. So every FT allreduce ends with a fence
(:meth:`~repro.comms.ft.channel.FtChannel.fence`): no rank escapes the
collective until all alive ranks have completed it, and a failure
anywhere routes every rank through the same restart. The fence's
fault-free cost is one shared-counter rendezvous per fused buffer —
measured in ``benchmarks/bench_ft_comms.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.comms.engine import CollectiveEngine
from repro.comms.ft.channel import (
    CollectiveRestart,
    FtChannel,
    PeerDeadError,
)
from repro.comms.ft.options import DEFAULT_FT_OPTIONS, FaultToleranceOptions
from repro.comms.ft.rebuild import rebuild_communicator
from repro.comms.options import (
    DEFAULT_OPTIONS,
    CollectiveOptions,
    select_algorithm,
)
from repro.comms.plan import plan_allreduce
from repro.comms.topology import Topology

__all__ = ["FaultTolerantEngine", "RebuildRecord"]

#: demotion targets; rhd demotes to ring like hierarchical does (its
#: power-of-two constraint makes it a lateral move, not a fallback)
_NEXT_DEMOTION = {
    "hierarchical": "ring",
    "rhd": "ring",
    "ring": "flat",
    "flat": None,
}


@dataclass(frozen=True)
class RebuildRecord:
    """One completed elastic communicator rebuild, as this rank saw it."""

    epoch: int
    old_world: int
    new_world: int
    old_rank: int
    new_rank: int
    survivors: Tuple[int, ...]  #: old rank ids, in new-rank order
    dead: Tuple[int, ...]
    coordinator: int
    elapsed_s: float


class FaultTolerantEngine(CollectiveEngine):
    """A CollectiveEngine that survives drops, corruption, and deaths."""

    def __init__(
        self,
        comm,
        options: Optional[CollectiveOptions] = None,
        tracer=None,
    ):
        opts = options if options is not None else DEFAULT_OPTIONS
        ft = opts.fault_tolerance
        self.ft_options: FaultToleranceOptions = (
            ft if ft is not None else DEFAULT_FT_OPTIONS
        )
        self.channel = FtChannel(comm, self.ft_options, tracer)
        super().__init__(self.channel, opts, tracer)
        #: completed rebuilds, oldest first
        self.rebuilds: List[RebuildRecord] = []
        #: metadata of the last recovered collective (None until one recovers)
        self.last_recovery: Optional[Dict[str, object]] = None
        self._rebuild_listeners: List[Callable[[RebuildRecord], None]] = []

    def on_rebuild(self, listener: Callable[[RebuildRecord], None]) -> None:
        """Register a callback fired (in this rank's thread) after rebuilds.

        The hvd layer uses this to swap its thread-local communicator and
        reconcile optimizer state when the world shrinks.
        """
        self._rebuild_listeners.append(listener)

    def close(self) -> None:
        """Stop the channel's heartbeat service."""
        self.channel.close()

    def owner_step_ok(self, options: Optional[CollectiveOptions] = None) -> bool:
        """Never: a retried or restarted collective would apply an update
        twice, so this engine keeps allreduce-then-update."""
        return False

    # -- the recovery loop ----------------------------------------------------
    def allreduce(
        self,
        tensor: np.ndarray,
        *,
        op: str = "mean",
        name: Optional[str] = None,
        options: Optional[CollectiveOptions] = None,
        tag_shift: int = 0,
    ) -> np.ndarray:
        opts = options if options is not None else self.options
        arr = np.asarray(tensor)
        if (
            not self.ft_options.enabled
            or self.comm.size == 1
            or arr.size == 0
            or opts.compression == "topk"
        ):
            # nothing to protect (or the sparse allgather path, which
            # runs on the raw comm's collectives)
            return super().allreduce(
                tensor, op=op, name=name, options=options, tag_shift=tag_shift
            )
        # deferred: repro.resilience eagerly imports the hvd layer, which
        # imports repro.comms — a module-level import here would cycle
        from repro.resilience.faults import TransientCollectiveError

        fto = self.ft_options
        tag = name or "tensor"
        ch = self.channel
        ch.ensure_started()
        algorithm: Optional[str] = None
        reason: Optional[str] = None
        first_failure: Optional[float] = None
        attempts = 0
        while True:
            attempts += 1
            if attempts > self.comm.size + 6:
                raise RuntimeError(
                    f"fault-tolerant allreduce of {tag!r} did not converge "
                    f"after {attempts - 1} attempts"
                )
            base = select_algorithm(arr.nbytes, self.topology, opts)
            if algorithm is None:
                algorithm, reason = self._maybe_demote_for_suspects(base)
                if algorithm != base:
                    # algorithm choice must be collective: peers that see
                    # no suspects would plan the undemoted schedule and
                    # deadlock against ours, so suspicion is announced as
                    # a demote restart everyone adopts
                    epoch = ch.broadcast_restart("demote", algorithm=algorithm)
                    ch.advance_epoch(epoch)
            try:
                ch.raise_pending()
                run_opts = opts.evolve(algorithm=algorithm)
                if algorithm == "flat":
                    # FT flat is the single-chunk ring pattern (the base
                    # short-circuit to comm.allreduce would bypass the
                    # channel); one chunk keeps it the minimal schedule
                    run_opts = run_opts.evolve(chunk_bytes=None)
                schedule = plan_allreduce(arr.nbytes, self.topology, run_opts)
                if schedule.algorithm != base:
                    schedule = replace(
                        schedule,
                        demoted_from=base,
                        demotion_reason=reason or "demoted for feasibility",
                    )
                result = self._run_schedule(
                    arr, op, tag, run_opts, schedule, tag_shift
                )
                self._fence(tag)
            except CollectiveRestart as restart:
                first_failure = first_failure or time.perf_counter()
                if restart.kind == "demote":
                    ch.advance_epoch(restart.epoch)
                    algorithm = restart.algorithm
                    reason = "peer-initiated demotion"
                else:
                    self._do_rebuild(restart.dead, restart.epoch)
                    algorithm = reason = None
                continue
            except PeerDeadError as exc:
                first_failure = first_failure or time.perf_counter()
                if not fto.allow_rebuild:
                    raise
                epoch = ch.broadcast_restart("rebuild", dead=exc.dead)
                self._do_rebuild(exc.dead, epoch)
                algorithm = reason = None
                continue
            except TransientCollectiveError as exc:
                first_failure = first_failure or time.perf_counter()
                nxt = _NEXT_DEMOTION.get(algorithm)
                if not fto.allow_demotion or nxt is None:
                    raise
                epoch = ch.broadcast_restart("demote", algorithm=nxt)
                ch.advance_epoch(epoch)
                reason = f"transient failure on {algorithm}: {exc}"
                algorithm = nxt
                continue
            if first_failure is not None:
                self._record_recovery(tag, attempts, first_failure, algorithm)
            return result

    # -- demotion -------------------------------------------------------------
    def _maybe_demote_for_suspects(
        self, algorithm: str
    ) -> Tuple[str, Optional[str]]:
        """Pre-demote latency-fragile schedules when peers look slow.

        Hierarchical and rhd serialize on specific partners; a straggler
        stalls the whole pipeline. Ring degrades more gracefully (the
        NACK path covers one slow hop), so suspicion demotes to ring
        before the collective starts rather than after it times out.
        """
        if not self.ft_options.demote_on_suspect:
            return algorithm, None
        if algorithm not in ("hierarchical", "rhd"):
            return algorithm, None
        suspects = self.channel.detector.suspects(
            r for r in range(self.comm.size) if r != self.comm.rank
        )
        if not suspects:
            return algorithm, None
        return "ring", f"suspect peers: {sorted(suspects)}"

    # -- the completion fence -------------------------------------------------
    def _fence(self, tag: str) -> None:
        """Block until every alive rank has finished this collective."""
        self.channel.fence(tag)

    # -- elastic rebuild ------------------------------------------------------
    def _do_rebuild(self, dead, epoch: int) -> None:
        """Run the survivor consensus and adopt the shrunken world."""
        ch = self.channel
        t0 = time.perf_counter()
        known_dead = set(dead) | ch.detector.dead_peers(range(ch.size))
        result = rebuild_communicator(
            ch.comm, known_dead, epoch, timeout=self.ft_options.rebuild_timeout_s
        )
        old_world, old_rank = ch.size, ch.rank
        ch.adopt(result.comm, result.epoch)
        self.topology = Topology.from_communicator(result.comm)
        elapsed = time.perf_counter() - t0
        record = RebuildRecord(
            epoch=result.epoch,
            old_world=old_world,
            new_world=result.comm.size,
            old_rank=old_rank,
            new_rank=result.new_rank,
            survivors=result.survivors,
            dead=result.dead,
            coordinator=result.coordinator,
            elapsed_s=elapsed,
        )
        self.rebuilds.append(record)
        tracer = self._tracer() if callable(self._tracer) else self._tracer
        if tracer is not None:
            tracer.record_span(
                "communicator_rebuild",
                t0,
                elapsed,
                category="ft",
                rank=old_rank,
                absolute=True,
                epoch=result.epoch,
                old_world=old_world,
                new_world=result.comm.size,
                dead=list(record.dead),
            )
            tracer.counter("ft.rebuilds", 1, rank=old_rank)
        for listener in self._rebuild_listeners:
            listener(record)

    # -- recovery telemetry ---------------------------------------------------
    def _record_recovery(
        self, tag: str, attempts: int, first_failure: float, algorithm: str
    ) -> None:
        recovery_s = time.perf_counter() - first_failure
        self.last_recovery = {
            "tensor": tag,
            "attempts": attempts,
            "recovery_s": recovery_s,
            "algorithm": algorithm,
            "rebuilds": len(self.rebuilds),
            "world": self.comm.size,
        }
        tracer = self._tracer() if callable(self._tracer) else self._tracer
        if tracer is not None:
            tracer.record_span(
                "ft_recovery",
                first_failure,
                recovery_s,
                category="ft",
                rank=self.comm.rank,
                absolute=True,
                tensor=tag,
                attempts=attempts,
                algorithm=algorithm,
            )

    def __repr__(self):
        return (
            f"<FaultTolerantEngine rank={self.comm.rank}/{self.comm.size} "
            f"epoch={self.channel.epoch} rebuilds={len(self.rebuilds)}>"
        )
