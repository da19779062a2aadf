"""The rank-local collective engine: executes planned schedules.

Each rank thread owns one :class:`CollectiveEngine` bound to its
communicator. ``allreduce`` resolves the algorithm (ring, recursive
halving-doubling, two-level hierarchical, or the flat reference path),
splits the buffer into pipelined chunks, executes the schedule with real
point-to-point messages, and records one telemetry span per chunk with
its bytes and algorithm.

**Numerics contract.** Floating-point addition is not associative, so
different message schedules would normally produce different low bits.
The engine avoids that by *canonicalizing the arithmetic*: every
algorithm moves per-source contributions through its own message
pattern but performs the reduction exactly once, at the chunk's owner,
over contributions ordered by ascending global rank
(:func:`repro.mpi.communicator.canonical_reduce` — the same routine the
flat path uses). Result: ring, rhd, and hierarchical allreduce are
**bit-identical** to the flat allreduce on the same inputs, for any
chunking — asserted in ``tests/comms``.

**The owner step.** :meth:`CollectiveEngine.allreduce_update` runs the
same schedules with the optimizer update moved to the chunk's owner:
it folds the mean into its own gradient slab, updates that segment
alone, and the gather carries the gradient, parameter and state
segments. Every rank ends with the bytes allreduce-then-update leaves,
and each element is updated once instead of once per rank.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.machine import get_machine
from repro.comms.options import (
    DEFAULT_OPTIONS,
    CollectiveOptions,
    select_algorithm,
)
from repro.comms.plan import plan_allreduce
from repro.comms.topology import Topology
from repro.mpi.communicator import canonical_reduce

__all__ = ["CollectiveEngine"]

# engine message tags, disjoint from the communicator's builtin range
_TAG_RING_RS = -101
_TAG_RING_AG = -102
_TAG_RHD_HALVE = -103
_TAG_RHD_DOUBLE = -104
_TAG_HIER_RS = -105
_TAG_HIER_RING = -106
_TAG_HIER_AG = -107
_TAG_ACK = -108

#: resolved fabric models for CollectiveOptions.emulate_fabric, by name
_FABRICS: Dict[str, object] = {}


def _emulated_fabric(name: str):
    """The fabric cost model for one machine name (cached)."""
    fabric = _FABRICS.get(name)
    if fabric is None:
        fabric = get_machine(name).fabric
        _FABRICS[name] = fabric
    return fabric


class CollectiveEngine:
    """Plans and executes collectives for one rank thread."""

    def __init__(
        self,
        comm,
        options: Optional[CollectiveOptions] = None,
        tracer=None,
    ):
        self.comm = comm
        self.options = options if options is not None else DEFAULT_OPTIONS
        self.topology = Topology.from_communicator(comm)
        self._tracer = tracer
        #: metadata of the last executed collective (for span attributes)
        self.last_info: Dict[str, object] = {}
        self.chunks_executed = 0

    # -- public entry -------------------------------------------------------
    def allreduce(
        self,
        tensor: np.ndarray,
        *,
        op: str = "mean",
        name: Optional[str] = None,
        options: Optional[CollectiveOptions] = None,
        tag_shift: int = 0,
    ) -> np.ndarray:
        """Reduce ``tensor`` across all ranks under the resolved schedule.

        ``tag_shift`` offsets every internal message tag, giving the
        collective a private mailbox namespace. Two collectives with
        different shifts may run *concurrently* on different threads of
        the same ranks (the overlap scheduler's channels); collectives
        sharing a shift must still be issued in identical order on all
        ranks.
        """
        opts = options if options is not None else self.options
        arr = np.asarray(tensor)
        tag = name or "tensor"
        if self.comm.size == 1 or arr.size == 0:
            self.last_info = {"algorithm": "flat", "chunks": 1, "wire_bytes": 0}
            return self.comm.allreduce(arr, op=op)
        algorithm = select_algorithm(arr.nbytes, self.topology, opts)
        if algorithm == "flat":
            t0 = time.perf_counter()
            result = self.comm.allreduce(arr, op=op)
            self._record_chunk(t0, tag, 0, arr.nbytes, algorithm="flat")
            self.last_info = {
                "algorithm": "flat", "chunks": 1, "wire_bytes": arr.nbytes,
            }
            return result
        schedule = plan_allreduce(arr.nbytes, self.topology, opts)
        return self._run_schedule(arr, op, tag, opts, schedule, tag_shift)

    def owner_step_ok(self, options: Optional[CollectiveOptions] = None) -> bool:
        """Whether :meth:`allreduce_update` may run under ``options``.

        It needs wire bytes that cost no wire time: the gather carries
        every slab the update writes, and only the threaded runtime's
        in-process messages make those bytes cheaper than the updates
        they save. Under an emulated fabric each byte
        sleeps its priced time, and at the paper's operating point
        (``benchmarks/bench_trainstep.py``'s overlap section) the extra
        gather costs more than the update saves, so such runs keep
        allreduce-then-update. (A fault-tolerant engine answers False: a
        retried or restarted collective must never apply an update
        twice.)
        """
        opts = options if options is not None else self.options
        return opts.emulate_fabric is None

    def allreduce_update(
        self,
        slabs: Sequence[np.ndarray],
        update: Callable[[int, int], None],
        *,
        name: Optional[str] = None,
        options: Optional[CollectiveOptions] = None,
        tag_shift: int = 0,
    ) -> None:
        """Mean-allreduce a gradient range, updating each element once.

        ``slabs`` are equal-length contiguous 1-D views of one element
        range of this rank's slabs: the gradient first, then every slab
        the update writes (parameters, each optimizer state slot).
        ``update(lo, hi)`` runs the optimizer over elements ``[lo, hi)``
        of the range.

        The ring, rhd and hierarchical schedules run an **owner step**
        between their reduce and gather phases: a segment's owner folds
        the contributions with :func:`canonical_reduce` straight into
        its own gradient slab, runs ``update`` over that segment, and
        the gather then carries the owner's gradient, parameter and
        state segments, which each receiver copies into its own slabs.
        Afterwards every rank holds the bytes an :meth:`allreduce` of
        the gradient followed by a whole-range ``update`` leaves, while
        each element is updated by one rank (one per node for
        hierarchical) instead of by all. A flat schedule, or a world of
        one, runs exactly that: allreduce, then update.

        The in-place writes rest on one invariant: a rank receives a
        segment only after its owner has read every contribution to it.
        Every segment shipped is a view of the sender's own slabs, so a
        sender leaves only after the ranks it shipped to acknowledge
        their copies; until then its next backward pass may not
        overwrite what they read.
        """
        opts = options if options is not None else self.options
        if not self.owner_step_ok(opts):
            raise ValueError(
                "the owner step needs the plain engine and no emulated "
                "fabric; the other reductions keep allreduce-then-update"
            )
        grads = slabs[0]
        algorithm = select_algorithm(grads.nbytes, self.topology, opts)
        if self.comm.size == 1 or grads.size == 0 or algorithm == "flat":
            np.copyto(
                grads,
                self.allreduce(grads, op="mean", name=name, options=opts),
            )
            update(0, grads.size)
            return
        run = self._runner(algorithm)

        def chunk(a: int, b: int) -> None:
            part = [s[a:b] for s in slabs]
            run(
                part[0], part, "mean", tag_shift,
                lambda lo, hi: update(a + lo, a + hi),
            )

        schedule = plan_allreduce(grads.nbytes, self.topology, opts)
        self._execute(
            schedule, opts, name or "tensor", grads.size, grads.itemsize,
            chunk, kinds=len(slabs),
        )

    # -- schedule execution -------------------------------------------------
    def _runner(self, algorithm: str) -> Callable[..., None]:
        """The routine that runs one chunk of ``algorithm``'s schedule.

        A schedule labelled ``flat`` (only reachable through the FT
        demotion ladder — the base path short-circuits flat to
        ``comm.allreduce``) runs the single-chunk ring pattern, which
        the numerics contract makes bit-identical to the flat reference.
        """
        if algorithm in ("ring", "flat"):
            return self._ring
        if algorithm == "rhd":
            return self._rhd
        return self._hierarchical

    def _run_schedule(
        self,
        arr: np.ndarray,
        op: str,
        tag: str,
        opts: CollectiveOptions,
        schedule,
        tag_shift: int = 0,
    ) -> np.ndarray:
        """Execute a planned chunked schedule over this rank's messages.

        A chunk that fails with a context-carrying error (a
        :class:`~repro.comms.ft.channel.TransientCollectiveError` from the
        injector or the FT channel) gets the failing chunk index,
        resolved algorithm, and tensor name attached before the
        exception propagates — so it surfaces in ``SpmdError`` as a
        targetable location, not a generic collective failure.
        """
        flat = np.ascontiguousarray(arr, dtype=np.float64).reshape(-1)
        out = np.empty_like(flat)
        run = self._runner(schedule.algorithm)
        self._execute(
            schedule, opts, tag, flat.size, flat.itemsize,
            lambda a, b: run(flat[a:b], [out[a:b]], op, tag_shift),
        )
        return out.reshape(arr.shape).astype(arr.dtype, copy=False)

    def _execute(
        self,
        schedule,
        opts: CollectiveOptions,
        tag: str,
        size: int,
        itemsize: int,
        run_chunk: Callable[[int, int], None],
        kinds: int = 1,
    ) -> None:
        """Run ``run_chunk(a, b)`` over each of the schedule's chunks.

        Adds each chunk's emulated wire time and span, and leaves the
        schedule's metadata in :attr:`last_info`. ``kinds`` is the number
        of slabs the gather carries (the owner step's gradient,
        parameter and state slabs): the wire time, the spans' bytes and
        ``last_info`` then count the schedule :meth:`carrying
        <repro.comms.plan.CollectiveSchedule.carrying>` them, and
        ``last_info["payload_bytes"]`` is the gradient's bytes scaled
        the same way.
        """
        algorithm = schedule.algorithm
        priced = schedule.carrying(kinds) if kinds > 1 else schedule
        scale = priced.wire_bytes() / schedule.wire_bytes() if kinds > 1 else 1.0
        bounds = np.linspace(0, size, schedule.nchunks + 1).astype(np.int64)
        # emulated wire latency: sleep each chunk's share of the priced
        # schedule, so the threaded runtime's (shared-memory, ~free)
        # messages cost what they would on the modeled machine's fabric
        delay_s = 0.0
        if opts.emulate_fabric is not None:
            fabric = _emulated_fabric(opts.emulate_fabric)
            delay_s = (
                priced.seconds(fabric)
                * opts.emulate_fabric_scale
                / schedule.nchunks
            )
        for ci in range(schedule.nchunks):
            a, b = int(bounds[ci]), int(bounds[ci + 1])
            t0 = time.perf_counter()
            try:
                run_chunk(a, b)
            except Exception as exc:
                attach = getattr(exc, "attach_context", None)
                if attach is not None:
                    attach(chunk=ci, algorithm=algorithm, tensor=tag)
                raise
            if delay_s > 0:
                time.sleep(delay_s)
            self._record_chunk(
                t0, tag, ci, int((b - a) * itemsize * scale),
                algorithm=algorithm,
            )
        info: Dict[str, object] = {
            "algorithm": algorithm,
            "chunks": schedule.nchunks,
            "wire_bytes": int(priced.wire_bytes()),
            "payload_bytes": int(size * itemsize * scale),
        }
        if schedule.demoted_from is not None:
            info["demoted_from"] = schedule.demoted_from
            info["demotion_reason"] = schedule.demotion_reason
        self.last_info = info

    # -- telemetry ----------------------------------------------------------
    def _record_chunk(
        self, start_s: float, tensor: str, chunk: int, nbytes: int, **attrs
    ) -> None:
        self.chunks_executed += 1
        tracer = self._tracer() if callable(self._tracer) else self._tracer
        if tracer is None:
            return
        tracer.record_span(
            "allreduce_chunk",
            start_s,
            time.perf_counter() - start_s,
            category="allreduce",
            rank=self.comm.rank,
            absolute=True,
            tensor=tensor,
            chunk=chunk,
            bytes=nbytes,
            **attrs,
        )

    # -- the schedules --------------------------------------------------------
    # Each schedule reduces the contributions ``seg`` across ranks into
    # ``slabs[0]``: the chunk's slice of an allreduce's fresh result, or,
    # for the owner step, ``seg`` itself. The owner of a segment folds it
    # (and runs ``update`` over it, when given); the gather then carries
    # that segment of every slab in ``slabs``. A sender ships views of
    # its own slabs and leaves only after their readers acknowledge, so
    # the caller may overwrite its slabs as soon as the schedule returns.
    @staticmethod
    def _own(slabs, contribs, op: str, lo: int, hi: int, update) -> None:
        """Fold the contributions into ``slabs[0][lo:hi]`` (which may be
        this rank's own contribution), then run ``update`` over it."""
        canonical_reduce(
            [contribs[r] for r in sorted(contribs)], op, out=slabs[0][lo:hi]
        )
        if update is not None:
            update(lo, hi)

    # -- ring ---------------------------------------------------------------
    def _ring(
        self,
        seg: np.ndarray,
        slabs: List[np.ndarray],
        op: str,
        tag_shift: int = 0,
        update: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        """Ring reduce-scatter, the owner's fold, then the slabs' gather."""
        group = list(range(self.comm.size))
        owned, contribs, bounds = self._ring_reduce_scatter(
            seg, group, _TAG_RING_RS - tag_shift
        )
        self._own(slabs, contribs, op, bounds[owned], bounds[owned + 1], update)
        self._ring_gather(
            slabs, owned, bounds, group, _TAG_RING_AG - tag_shift,
            _TAG_ACK - tag_shift,
        )

    def _ring_reduce_scatter(
        self,
        vec: np.ndarray,
        group: Sequence[int],
        tag: int,
    ) -> Tuple[int, Dict[int, np.ndarray], np.ndarray]:
        """Ring reduce-scatter over ``group``, carrying per-source segments.

        Returns ``(owned_index, contributions, bounds)`` where
        ``contributions`` maps every group member's global rank to its
        segment ``owned_index`` — the owner combines them canonically
        afterwards.
        """
        me = self.comm.rank
        p = len(group)
        i = group.index(me)
        bounds = np.linspace(0, vec.size, p + 1).astype(np.int64)
        segs = [vec[bounds[j] : bounds[j + 1]] for j in range(p)]
        if p == 1:
            return 0, {me: segs[0]}, bounds
        right = group[(i + 1) % p]
        left = group[(i - 1) % p]
        send_idx = i
        parcel: Dict[int, np.ndarray] = {me: segs[send_idx]}
        for _ in range(p - 1):
            self.comm.send(parcel, right, tag=tag)
            recv_idx = (send_idx - 1) % p
            parcel = self.comm.recv(left, tag=tag)
            parcel[me] = segs[recv_idx]
            send_idx = recv_idx
        return (i + 1) % p, parcel, bounds

    def _ring_gather(
        self,
        slabs: List[np.ndarray],
        owned: int,
        bounds: np.ndarray,
        group: Sequence[int],
        tag: int,
        ack_tag: int,
    ) -> None:
        """Circulate the owners' segments of every slab around ``group``.

        Each rank ships views of its own slabs (the segment it owns,
        then each one it has just copied in), so only its right
        neighbour reads them; that neighbour's acknowledgement, sent
        after its last copy, releases them.
        """
        p = len(group)
        if p == 1:
            return
        i = group.index(self.comm.rank)
        right = group[(i + 1) % p]
        left = group[(i - 1) % p]
        idx = owned
        for _ in range(p - 1):
            a, b = bounds[idx], bounds[idx + 1]
            self.comm.send((idx, [s[a:b] for s in slabs]), right, tag=tag)
            idx, segments = self.comm.recv(left, tag=tag)
            a, b = bounds[idx], bounds[idx + 1]
            for s, segment in zip(slabs, segments):
                s[a:b] = segment
        self.comm.send(b"", left, tag=ack_tag)
        self.comm.recv(right, tag=ack_tag)

    # -- recursive halving-doubling -----------------------------------------
    def _rhd(
        self,
        seg: np.ndarray,
        slabs: List[np.ndarray],
        op: str,
        tag_shift: int = 0,
        update: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        """Recursive halving, the owner's fold, then doubling over every
        slab.

        Each doubling round ships views of this rank's own slabs to that
        round's partner, who reads nothing else of them; the partners'
        acknowledgements, sent after their last copy, release them.
        """
        me = self.comm.rank
        rounds = self.comm.size.bit_length() - 1  # a power of two (planner)
        contribs: Dict[int, np.ndarray] = {me: seg}
        lo, hi = 0, int(seg.size)
        for k in range(rounds):
            partner = me ^ (1 << k)
            mid = (lo + hi) // 2
            cut = mid - lo
            if me < partner:
                ship = {s: a[cut:] for s, a in contribs.items()}
                contribs = {s: a[:cut] for s, a in contribs.items()}
                hi = mid
            else:
                ship = {s: a[:cut] for s, a in contribs.items()}
                contribs = {s: a[cut:] for s, a in contribs.items()}
                lo = mid
            self.comm.send(ship, partner, tag=_TAG_RHD_HALVE - tag_shift)
            contribs.update(self.comm.recv(partner, tag=_TAG_RHD_HALVE - tag_shift))
        self._own(slabs, contribs, op, lo, hi, update)
        owned: List[Tuple[int, int]] = [(lo, hi)]
        partners = [me ^ (1 << k) for k in reversed(range(rounds))]
        for partner in partners:
            ship = [(a, b, [s[a:b] for s in slabs]) for a, b in owned]
            self.comm.send(ship, partner, tag=_TAG_RHD_DOUBLE - tag_shift)
            for a, b, segments in self.comm.recv(partner, tag=_TAG_RHD_DOUBLE - tag_shift):
                for s, segment in zip(slabs, segments):
                    s[a:b] = segment
                owned.append((a, b))
        for partner in partners:
            self.comm.send(b"", partner, tag=_TAG_ACK - tag_shift)
        for partner in partners:
            self.comm.recv(partner, tag=_TAG_ACK - tag_shift)

    # -- two-level hierarchical ---------------------------------------------
    def _hierarchical(
        self,
        seg: np.ndarray,
        slabs: List[np.ndarray],
        op: str,
        tag_shift: int = 0,
        update: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        """Intra-node reduce-scatter, inter-node ring, the owner's fold on
        every rank of a slice's rail (one per node), then the intra-node
        gather of every slab.

        Each local index owns one slice of the buffer; the slices ring
        across nodes along their "rail" in parallel, so inter-node hops
        drop from O(p) to O(nnodes). An owner that folds into ``seg``
        itself (the owner step) overwrites its node's contributions
        while rail peers may still read them, so the rail then carries
        copies.
        """
        me = self.comm.rank
        local = self.topology.node_ranks(me)
        rail = self.topology.rail_ranks(me)
        owned, contribs, bounds = self._ring_reduce_scatter(
            seg, local, _TAG_HIER_RS - tag_shift
        )
        collected = dict(contribs)
        n = len(rail)
        if n > 1:
            i = rail.index(me)
            right = rail[(i + 1) % n]
            left = rail[(i - 1) % n]
            carry = contribs
            if np.may_share_memory(seg, slabs[0]):
                carry = {r: c.copy() for r, c in contribs.items()}
            for _ in range(n - 1):
                self.comm.send(carry, right, tag=_TAG_HIER_RING - tag_shift)
                carry = self.comm.recv(left, tag=_TAG_HIER_RING - tag_shift)
                collected.update(carry)
        self._own(slabs, collected, op, bounds[owned], bounds[owned + 1], update)
        self._ring_gather(
            slabs, owned, bounds, local, _TAG_HIER_AG - tag_shift,
            _TAG_ACK - tag_shift,
        )

    def __repr__(self):
        return (
            f"<CollectiveEngine rank={self.comm.rank}/{self.comm.size} "
            f"{self.options.algorithm}>"
        )
