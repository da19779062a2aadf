"""The rank-local collective engine: executes planned schedules.

Each rank thread owns one :class:`CollectiveEngine` bound to its
communicator. ``allreduce`` resolves the algorithm (ring, recursive
halving-doubling, two-level hierarchical, or flat: the ring in one
chunk), splits the buffer into pipelined chunks, executes the schedule
with real point-to-point messages, and records one telemetry span per
chunk with its bytes and algorithm.

**Numerics contract.** Floating-point addition is not associative, so
different message schedules would normally produce different low bits.
The engine avoids that by *canonicalizing the arithmetic*: every
algorithm moves per-source contributions through its own message
pattern but performs the reduction exactly once, at the chunk's owner,
over contributions ordered by ascending global rank
(:func:`repro.mpi.communicator.canonical_reduce` — the same routine
:meth:`Communicator.allreduce <repro.mpi.communicator.Communicator.allreduce>`
uses at its root). Result: every schedule is **bit-identical** to
``comm.allreduce`` on the same inputs, for any chunking — asserted in
``tests/comms``.

**One update order.** :meth:`CollectiveEngine.allreduce_update` is
the whole distributed step of one gradient range: mean-allreduce it,
then update it. Ownership decides where the update runs. When this
rank owns every element (:meth:`CollectiveEngine.owned_ranges` is
``[(0, size)]``) it is exactly that: :meth:`allreduce`, then one
``update`` of the whole range. Otherwise the schedule runs the update
at each chunk's owner (ZeRO stage 1): the owner folds the mean into its
own gradient slab, updates that segment alone, and the gather carries
the parameter segments only, so a step moves exactly an allreduce's
bytes. Every rank ends with the same parameters either way. Ownership
is a pure function of the range, the plan and the topology: the ranges
``update`` is handed, the only ones a rank keeps optimizer state for,
and the ones :meth:`CollectiveEngine.gather_owned` ships when a reader
needs the state whole.
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
        schedule = plan_allreduce(arr.nbytes, self.topology, opts)
        return self._run_schedule(arr, op, tag, opts, schedule, tag_shift)

    def allreduce_update(
        self,
        slabs: Sequence[np.ndarray],
        update: Callable[[int, int], None],
        *,
        whole: bool = False,
        name: Optional[str] = None,
        options: Optional[CollectiveOptions] = None,
        tag_shift: int = 0,
    ) -> None:
        """Mean-allreduce a gradient range, then update it.

        ``slabs`` is ``(grads, params)``: equal-length contiguous 1-D
        views of one element range of this rank's gradient and parameter
        slabs. ``update(lo, hi)`` runs the optimizer over elements
        ``[lo, hi)`` of the range, writing the parameters and the
        optimizer state there. ``update`` is handed exactly
        :meth:`owned_ranges` (with the same ``whole``).

        When this rank owns everything (``whole``, or see
        :meth:`_owner_algorithm`) the gradient is allreduced in place
        and ``update(0, n)`` runs once after it; a world of one runs the
        update alone. Otherwise the ring, rhd and hierarchical schedules
        run an **owner step** between their reduce and gather phases: a
        segment's owner folds the contributions with
        :func:`canonical_reduce` straight into its own gradient slab,
        runs ``update`` over that segment, and the gather carries the
        owner's parameter segment, which each receiver copies into its
        own slab. Each element is then updated by one rank (one per node
        for hierarchical) instead of by all, and the optimizer state and
        mean gradient are written on the owned ranges only;
        :meth:`gather_owned` copies the owners' state to every rank.

        The in-place writes rest on one invariant: a rank receives a
        segment only after its owner has read every contribution to it.
        Every segment shipped is a view of the sender's own slabs, so a
        sender leaves only after the ranks it shipped to acknowledge
        their copies; until then its next step may not overwrite what
        they read.
        """
        opts = options if options is not None else self.options
        grads, params = slabs
        algorithm = None if whole else self._owner_algorithm(grads.nbytes, opts)
        if algorithm is None:
            if self.comm.size > 1:
                reduced = self.allreduce(
                    grads, op="mean", name=name, options=opts, tag_shift=tag_shift
                )
                np.copyto(grads, reduced)
            update(0, grads.size)
            return

        run = self._runner(algorithm)

        def chunk(a: int, b: int) -> None:
            run(
                grads[a:b], grads[a:b], [params[a:b]], "mean", tag_shift,
                lambda lo, hi: update(a + lo, a + hi),
            )

        schedule = plan_allreduce(grads.nbytes, self.topology, opts)
        self._execute(
            schedule, opts, name or "tensor", grads.size, grads.itemsize, chunk
        )

    def owned_ranges(
        self,
        size: int,
        itemsize: int,
        options: Optional[CollectiveOptions] = None,
        *,
        whole: bool = False,
    ) -> List[Tuple[int, int]]:
        """The ``[lo, hi)`` ranges this rank updates in an
        :meth:`allreduce_update` of a ``size``-element range of
        ``itemsize``-byte elements.

        The one definition of ownership: one range per chunk of the
        plan, the segment this rank's reduce phase folds (its ring
        segment; the half its rhd halvings keep; its local index's slice
        of the node, shared along the rail for hierarchical).
        :meth:`allreduce_update` hands ``update`` exactly these ranges,
        :meth:`gather_owned` ships exactly these, and a distributed
        optimizer keeps state for these only. The ranks' ranges
        partition the range exactly once (once per node for
        hierarchical). ``whole``, or any case :meth:`_owner_algorithm`
        names, owns everything: ``[(0, size)]``.
        """
        opts = options if options is not None else self.options
        nbytes = size * itemsize
        algorithm = None if whole else self._owner_algorithm(nbytes, opts)
        if algorithm is None:
            return [(0, size)]
        me = self.comm.rank
        schedule = plan_allreduce(nbytes, self.topology, opts)
        ranges = []
        for a, b in self._chunk_bounds(schedule, size):
            if algorithm == "rhd":
                rounds = self.comm.size.bit_length() - 1
                lo, hi = self._rhd_halvings(b - a, rounds)[1]
            else:
                group = (
                    self.topology.node_ranks(me)
                    if algorithm == "hierarchical"
                    else list(range(self.comm.size))
                )
                owned, bounds = self._ring_segments(b - a, group)
                lo, hi = bounds[owned], bounds[owned + 1]
            ranges.append((a + int(lo), a + int(hi)))
        return ranges

    def gather_owned(
        self,
        slabs: Sequence[np.ndarray],
        *,
        options: Optional[CollectiveOptions] = None,
        tag_shift: int = 0,
    ) -> None:
        """Copy each owner's segments of ``slabs`` to every rank.

        ``slabs`` are equal-length 1-D views of one element range, with
        the gradient's dtype, that :meth:`allreduce_update` stepped
        under ``options``, each correct on this rank's
        :meth:`owned_ranges` of it (where a distributed optimizer puts
        the state it kept). This replays that call's gather phase,
        chunk by chunk and through the same gather code, over ``slabs``
        instead of the parameters, so every rank ends with the owners'
        bytes everywhere. Ownership depends only on the range, the plan
        and the topology, so no reduce phase runs first. Every rank of
        the collective must call it, as for the steps it replays; a
        flat plan or a world of one owns everything and moves nothing.
        """
        if not slabs:
            return
        opts = options if options is not None else self.options
        nbytes = slabs[0].nbytes
        algorithm = self._owner_algorithm(nbytes, opts)
        if algorithm is None:
            return
        run = self._runner(algorithm)
        schedule = plan_allreduce(nbytes, self.topology, opts)
        for a, b in self._chunk_bounds(schedule, slabs[0].size):
            run(None, None, [s[a:b] for s in slabs], "mean", tag_shift)

    # -- schedule execution -------------------------------------------------
    def _runner(self, algorithm: str) -> Callable[..., None]:
        """The routine that runs one chunk of ``algorithm``'s schedule.

        ``flat`` is the ring run as one chunk (the planner never splits
        it).
        """
        if algorithm in ("ring", "flat"):
            return self._ring
        if algorithm == "rhd":
            return self._rhd
        return self._hierarchical

    def _owner_algorithm(self, nbytes: int, opts: CollectiveOptions) -> Optional[str]:
        """The algorithm an owner step of ``nbytes`` runs, or None when
        every rank owns every element: a world of one, an empty range, a
        flat plan, or an emulated fabric. There each chunk sleeps its
        priced wire time, and at the paper's operating point
        (``benchmarks/bench_trainstep.py``'s overlap section, plain SGD)
        the owner step was not faster even with its gather at an
        allreduce's bytes (pairs in ``docs/results/benchmark-results.md``)."""
        if self.comm.size == 1 or nbytes == 0 or opts.emulate_fabric is not None:
            return None
        algorithm = select_algorithm(nbytes, self.topology, opts)
        return None if algorithm == "flat" else algorithm

    def _run_schedule(
        self,
        arr: np.ndarray,
        op: str,
        tag: str,
        opts: CollectiveOptions,
        schedule,
        tag_shift: int = 0,
    ) -> np.ndarray:
        """Execute a planned chunked schedule over this rank's messages."""
        flat = np.ascontiguousarray(arr, dtype=np.float64).reshape(-1)
        out = np.empty_like(flat)
        run = self._runner(schedule.algorithm)
        self._execute(
            schedule, opts, tag, flat.size, flat.itemsize,
            lambda a, b: run(flat[a:b], out[a:b], [out[a:b]], op, tag_shift),
        )
        return out.reshape(arr.shape).astype(arr.dtype, copy=False)

    @staticmethod
    def _chunk_bounds(schedule, size: int) -> List[Tuple[int, int]]:
        """The ``[a, b)`` element range of each of the schedule's chunks."""
        bounds = np.linspace(0, size, schedule.nchunks + 1).astype(np.int64)
        return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]

    def _execute(
        self,
        schedule,
        opts: CollectiveOptions,
        tag: str,
        size: int,
        itemsize: int,
        run_chunk: Callable[[int, int], None],
    ) -> None:
        """Run ``run_chunk(a, b)`` over each of the schedule's chunks.

        Adds each chunk's emulated wire time and span, and leaves the
        schedule's metadata in :attr:`last_info`.
        """
        algorithm = schedule.algorithm
        # emulated wire latency: sleep each chunk's share of the priced
        # schedule, so the threaded runtime's (shared-memory, ~free)
        # messages cost what they would on the modeled machine's fabric
        delay_s = 0.0
        if opts.emulate_fabric is not None:
            fabric = _emulated_fabric(opts.emulate_fabric)
            delay_s = (
                schedule.seconds(fabric)
                * opts.emulate_fabric_scale
                / schedule.nchunks
            )
        for ci, (a, b) in enumerate(self._chunk_bounds(schedule, size)):
            t0 = time.perf_counter()
            run_chunk(a, b)
            if delay_s > 0:
                # a schedule, not a poll: the chunk's emulated wire time
                time.sleep(delay_s)
            self._record_chunk(t0, tag, ci, (b - a) * itemsize, algorithm=algorithm)
        self.last_info = {
            "algorithm": algorithm,
            "chunks": schedule.nchunks,
            "wire_bytes": int(schedule.wire_bytes()),
            "payload_bytes": size * itemsize,
        }

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
    # ``fold``: the chunk's slice of an allreduce's fresh result, or, for
    # the owner step, ``seg`` itself. The owner of a segment folds it
    # (and runs ``update`` over it, when given); the gather then carries
    # that segment of every slab in ``carried``. A sender ships views of
    # its own slabs and leaves only after their readers acknowledge, so
    # the caller may overwrite its slabs as soon as the schedule returns.
    # With ``seg`` None the reduce phase is skipped and the gather alone
    # runs, from the segments the reduce phase would have given this
    # rank (:meth:`gather_owned`).
    @staticmethod
    def _own(fold, contribs, op: str, lo: int, hi: int, update) -> None:
        """Fold the contributions into ``fold[lo:hi]`` (which may be
        this rank's own contribution), then run ``update`` over it."""
        canonical_reduce(
            [contribs[r] for r in sorted(contribs)], op, out=fold[lo:hi]
        )
        if update is not None:
            update(lo, hi)

    # -- ring ---------------------------------------------------------------
    def _ring(
        self,
        seg: Optional[np.ndarray],
        fold: Optional[np.ndarray],
        carried: List[np.ndarray],
        op: str,
        tag_shift: int = 0,
        update: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        """Ring reduce-scatter, the owner's fold, then the gather."""
        group = list(range(self.comm.size))
        owned, bounds = self._ring_segments(carried[0].size, group)
        if seg is not None:
            contribs = self._ring_reduce_scatter(
                seg, group, _TAG_RING_RS - tag_shift
            )
            self._own(fold, contribs, op, bounds[owned], bounds[owned + 1], update)
        self._ring_gather(
            carried, owned, bounds, group, _TAG_RING_AG - tag_shift,
            _TAG_ACK - tag_shift,
        )

    def _ring_segments(
        self, size: int, group: Sequence[int]
    ) -> Tuple[int, np.ndarray]:
        """``(owned_index, bounds)``: the segment a ring reduce-scatter of
        ``size`` elements over ``group`` leaves this rank, and every
        segment's bounds."""
        p = len(group)
        bounds = np.linspace(0, size, p + 1).astype(np.int64)
        return (group.index(self.comm.rank) + 1) % p, bounds

    def _ring_reduce_scatter(
        self,
        vec: np.ndarray,
        group: Sequence[int],
        tag: int,
    ) -> Dict[int, np.ndarray]:
        """Ring reduce-scatter over ``group``, carrying per-source segments.

        Returns the contributions to this rank's :meth:`_ring_segments`
        segment, keyed by every group member's global rank — the owner
        combines them canonically afterwards.
        """
        me = self.comm.rank
        p = len(group)
        i = group.index(me)
        _, bounds = self._ring_segments(vec.size, group)
        segs = [vec[bounds[j] : bounds[j + 1]] for j in range(p)]
        if p == 1:
            return {me: segs[0]}
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
        return parcel

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
        seg: Optional[np.ndarray],
        fold: Optional[np.ndarray],
        carried: List[np.ndarray],
        op: str,
        tag_shift: int = 0,
        update: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        """Recursive halving, the owner's fold, then doubling over every
        carried slab.

        Each doubling round ships views of this rank's own slabs to that
        round's partner, who reads nothing else of them; the partners'
        acknowledgements, sent after their last copy, release them.
        """
        me = self.comm.rank
        rounds = self.comm.size.bit_length() - 1  # a power of two (planner)
        halvings, (lo, hi) = self._rhd_halvings(carried[0].size, rounds)
        if seg is not None:
            contribs: Dict[int, np.ndarray] = {me: seg}
            for partner, start, mid in halvings:
                cut = mid - start
                if me < partner:
                    ship = {s: a[cut:] for s, a in contribs.items()}
                    contribs = {s: a[:cut] for s, a in contribs.items()}
                else:
                    ship = {s: a[:cut] for s, a in contribs.items()}
                    contribs = {s: a[cut:] for s, a in contribs.items()}
                self.comm.send(ship, partner, tag=_TAG_RHD_HALVE - tag_shift)
                contribs.update(
                    self.comm.recv(partner, tag=_TAG_RHD_HALVE - tag_shift)
                )
            self._own(fold, contribs, op, lo, hi, update)
        owned: List[Tuple[int, int]] = [(lo, hi)]
        partners = [partner for partner, _, _ in reversed(halvings)]
        for partner in partners:
            ship = [(a, b, [s[a:b] for s in carried]) for a, b in owned]
            self.comm.send(ship, partner, tag=_TAG_RHD_DOUBLE - tag_shift)
            for a, b, segments in self.comm.recv(partner, tag=_TAG_RHD_DOUBLE - tag_shift):
                for s, segment in zip(carried, segments):
                    s[a:b] = segment
                owned.append((a, b))
        for partner in partners:
            self.comm.send(b"", partner, tag=_TAG_ACK - tag_shift)
        for partner in partners:
            self.comm.recv(partner, tag=_TAG_ACK - tag_shift)

    def _rhd_halvings(
        self, size: int, rounds: int
    ) -> Tuple[List[Tuple[int, int, int]], Tuple[int, int]]:
        """Each halving round's ``(partner, start, mid)`` for a range of
        ``size`` elements, and the ``[lo, hi)`` this rank owns after the
        last. A round splits the rank's range ``[start, hi)`` at ``mid``;
        the lower rank of the pair keeps the lower half."""
        me = self.comm.rank
        lo, hi = 0, size
        halvings = []
        for k in range(rounds):
            partner = me ^ (1 << k)
            mid = (lo + hi) // 2
            halvings.append((partner, lo, mid))
            lo, hi = (lo, mid) if me < partner else (mid, hi)
        return halvings, (lo, hi)

    # -- two-level hierarchical ---------------------------------------------
    def _hierarchical(
        self,
        seg: Optional[np.ndarray],
        fold: Optional[np.ndarray],
        carried: List[np.ndarray],
        op: str,
        tag_shift: int = 0,
        update: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        """Intra-node reduce-scatter, inter-node ring, the owner's fold on
        every rank of a slice's rail (one per node), then the intra-node
        gather of every carried slab.

        Each local index owns one slice of the buffer; the slices ring
        across nodes along their "rail" in parallel, so inter-node hops
        drop from O(p) to O(nnodes). The rail carries copies: no
        acknowledgement comes back along it, so a rank may leave while
        rail peers on other nodes are still folding what it shipped, and
        then overwrite its contributions (the owner step folds into
        ``seg`` itself; an allreduce's caller may write its input as
        soon as the call returns).
        """
        me = self.comm.rank
        local = self.topology.node_ranks(me)
        owned, bounds = self._ring_segments(carried[0].size, local)
        if seg is not None:
            rail = self.topology.rail_ranks(me)
            contribs = self._ring_reduce_scatter(
                seg, local, _TAG_HIER_RS - tag_shift
            )
            collected = dict(contribs)
            n = len(rail)
            if n > 1:
                i = rail.index(me)
                right = rail[(i + 1) % n]
                left = rail[(i - 1) % n]
                carry = {r: c.copy() for r, c in contribs.items()}
                for _ in range(n - 1):
                    self.comm.send(carry, right, tag=_TAG_HIER_RING - tag_shift)
                    carry = self.comm.recv(left, tag=_TAG_HIER_RING - tag_shift)
                    collected.update(carry)
            self._own(fold, collected, op, bounds[owned], bounds[owned + 1], update)
        self._ring_gather(
            carried, owned, bounds, local, _TAG_HIER_AG - tag_shift,
            _TAG_ACK - tag_shift,
        )

    def __repr__(self):
        return (
            f"<CollectiveEngine rank={self.comm.rank}/{self.comm.size} "
            f"{self.options.algorithm}>"
        )
