"""The rank-local collective engine: executes planned schedules.

Each rank thread owns one :class:`CollectiveEngine` bound to its
communicator. ``allreduce`` resolves the algorithm (ring, recursive
halving-doubling, two-level hierarchical, or the flat reference path),
splits the buffer into pipelined chunks, executes the schedule with real
point-to-point messages, and records one telemetry span per chunk with
bytes, algorithm, and compression ratio.

**Numerics contract.** Floating-point addition is not associative, so
different message schedules would normally produce different low bits.
The engine avoids that by *canonicalizing the arithmetic*: every
non-compressed algorithm moves per-source contributions through its own
message pattern but performs the reduction exactly once, at the chunk's
owner, over contributions ordered by ascending global rank
(:func:`repro.mpi.communicator.canonical_reduce` — the same routine the
flat path uses). Result: ring, rhd, and hierarchical allreduce are
**bit-identical** to the flat allreduce on the same inputs, for any
chunking — asserted in ``tests/comms``. Compressed paths (fp16, top-k
with error feedback) are lossy by design and covered by tolerance and
convergence tests instead.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comms.compression import TopKCompressor, fp16_encode
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

#: resolved fabric models for CollectiveOptions.emulate_fabric, by name
_FABRICS: Dict[str, object] = {}


def _emulated_fabric(name: str):
    """The fabric cost model for one machine name (cached).

    Imported lazily: the engine sits below :mod:`repro.cluster` in the
    layering and only needs a machine model when a run opts into
    emulated wire latency.
    """
    fabric = _FABRICS.get(name)
    if fabric is None:
        from repro.cluster.machine import get_machine

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
        self._topk: Dict[Tuple[float, bool], TopKCompressor] = {}
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
            self.last_info = {
                "algorithm": "flat", "chunks": 1, "compression": "none",
                "wire_bytes": 0,
            }
            return self.comm.allreduce(arr, op=op)
        if opts.compression == "topk":
            return self._topk_allreduce(arr, op, tag, opts)
        algorithm = select_algorithm(arr.nbytes, self.topology, opts)
        if algorithm == "flat":
            t0 = time.perf_counter()
            result = self.comm.allreduce(arr, op=op)
            self._record_chunk(
                t0, tag, 0, arr.nbytes, algorithm="flat", compression="none"
            )
            self.last_info = {
                "algorithm": "flat", "chunks": 1, "compression": "none",
                "wire_bytes": arr.nbytes,
            }
            return result
        schedule = plan_allreduce(arr.nbytes, self.topology, opts)
        return self._run_schedule(arr, op, tag, opts, schedule, tag_shift)

    # -- schedule execution -------------------------------------------------
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

        The dispatch follows ``schedule.algorithm``; a schedule labelled
        ``flat`` (only reachable through the FT demotion ladder — the
        base path short-circuits flat to ``comm.allreduce``) executes
        the single-chunk ring pattern, which the numerics contract
        makes bit-identical to the flat reference.

        A chunk that fails with a context-carrying error (a
        :class:`~repro.resilience.TransientCollectiveError` from the
        injector or the FT channel) gets the failing chunk index,
        resolved algorithm, and tensor name attached before the
        exception propagates — so it surfaces in ``SpmdError`` as a
        targetable location, not a generic collective failure.
        """
        algorithm = schedule.algorithm
        flat = np.ascontiguousarray(arr, dtype=np.float64).reshape(-1)
        out = np.empty_like(flat)
        bounds = np.linspace(0, flat.size, schedule.nchunks + 1).astype(np.int64)
        wire_ratio = opts.wire_ratio()
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
        if algorithm in ("ring", "flat"):
            run = self._ring
        elif algorithm == "rhd":
            run = self._rhd
        else:
            run = self._hierarchical
        for ci in range(schedule.nchunks):
            a, b = bounds[ci], bounds[ci + 1]
            seg = flat[a:b]
            t0 = time.perf_counter()
            try:
                run(seg, op, opts, out[a:b], tag_shift)
            except Exception as exc:
                attach = getattr(exc, "attach_context", None)
                if attach is not None:
                    attach(chunk=ci, algorithm=algorithm, tensor=tag)
                raise
            if delay_s > 0:
                time.sleep(delay_s)
            self._record_chunk(
                t0, tag, ci, int(seg.nbytes * wire_ratio),
                algorithm=algorithm, compression=opts.compression,
            )
        info: Dict[str, object] = {
            "algorithm": algorithm,
            "chunks": schedule.nchunks,
            "compression": opts.compression,
            "wire_bytes": int(schedule.wire_bytes()),
        }
        if schedule.demoted_from is not None:
            info["demoted_from"] = schedule.demoted_from
            info["demotion_reason"] = schedule.demotion_reason
        self.last_info = info
        return out.reshape(arr.shape).astype(arr.dtype, copy=False)

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

    # -- wire encoding ------------------------------------------------------
    @staticmethod
    def _wire(segment: np.ndarray, opts: CollectiveOptions) -> np.ndarray:
        return fp16_encode(segment) if opts.compression == "fp16" else segment

    # -- ring ---------------------------------------------------------------
    # Each algorithm reduces ``seg`` across ranks into ``out`` (the
    # chunk's slice of the schedule's result). The combined segment a
    # rank sends stays a fresh array: peers read it after this returns.
    def _ring(
        self,
        seg: np.ndarray,
        op: str,
        opts: CollectiveOptions,
        out: np.ndarray,
        tag_shift: int = 0,
    ) -> None:
        group = list(range(self.comm.size))
        owned, contribs, bounds = self._ring_reduce_scatter(
            seg, group, opts, _TAG_RING_RS - tag_shift
        )
        combined = canonical_reduce(
            [contribs[r] for r in sorted(contribs)], op
        )
        self._ring_allgather(
            combined, owned, bounds, group, _TAG_RING_AG - tag_shift, out
        )

    def _ring_reduce_scatter(
        self,
        vec: np.ndarray,
        group: Sequence[int],
        opts: CollectiveOptions,
        tag: int,
    ) -> Tuple[int, Dict[int, np.ndarray], np.ndarray]:
        """Ring reduce-scatter over ``group``, carrying per-source segments.

        Returns ``(owned_index, contributions, bounds)`` where
        ``contributions`` maps every group member's global rank to its
        (possibly wire-compressed) segment ``owned_index`` — the owner
        combines them canonically afterwards.
        """
        me = self.comm.rank
        p = len(group)
        i = group.index(me)
        bounds = np.linspace(0, vec.size, p + 1).astype(np.int64)
        segs = [
            self._wire(vec[bounds[j] : bounds[j + 1]], opts) for j in range(p)
        ]
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

    def _ring_allgather(
        self,
        combined: np.ndarray,
        owned: int,
        bounds: np.ndarray,
        group: Sequence[int],
        tag: int,
        out: np.ndarray,
    ) -> None:
        """Circulate combined segments until every rank's ``out`` holds
        the whole reduced vector."""
        me = self.comm.rank
        p = len(group)
        i = group.index(me)
        out[bounds[owned] : bounds[owned + 1]] = combined
        if p == 1:
            return
        right = group[(i + 1) % p]
        left = group[(i - 1) % p]
        carry: Tuple[int, np.ndarray] = (owned, combined)
        for _ in range(p - 1):
            self.comm.send(carry, right, tag=tag)
            carry = self.comm.recv(left, tag=tag)
            idx, segment = carry
            out[bounds[idx] : bounds[idx + 1]] = segment

    # -- recursive halving-doubling -----------------------------------------
    def _rhd(
        self,
        seg: np.ndarray,
        op: str,
        opts: CollectiveOptions,
        out: np.ndarray,
        tag_shift: int = 0,
    ) -> None:
        me = self.comm.rank
        p = self.comm.size
        rounds = p.bit_length() - 1  # p is a power of two (planner guarantee)
        contribs: Dict[int, np.ndarray] = {me: self._wire(seg, opts)}
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
        combined = canonical_reduce([contribs[r] for r in sorted(contribs)], op)
        out[lo:hi] = combined
        owned: List[Tuple[int, int]] = [(lo, hi)]
        for k in reversed(range(rounds)):
            partner = me ^ (1 << k)
            ship = [(a, b, out[a:b].copy()) for a, b in owned]
            self.comm.send(ship, partner, tag=_TAG_RHD_DOUBLE - tag_shift)
            for a, b, segment in self.comm.recv(partner, tag=_TAG_RHD_DOUBLE - tag_shift):
                out[a:b] = segment
                owned.append((a, b))

    # -- two-level hierarchical ---------------------------------------------
    def _hierarchical(
        self,
        seg: np.ndarray,
        op: str,
        opts: CollectiveOptions,
        out: np.ndarray,
        tag_shift: int = 0,
    ) -> None:
        """Intra-node reduce-scatter, inter-node ring, intra-node allgather.

        Each local index owns one slice of the buffer; the slices ring
        across nodes along their "rail" in parallel, so inter-node hops
        drop from O(p) to O(nnodes).
        """
        me = self.comm.rank
        local = self.topology.node_ranks(me)
        rail = self.topology.rail_ranks(me)
        owned, contribs, bounds = self._ring_reduce_scatter(
            seg, local, opts, _TAG_HIER_RS - tag_shift
        )
        collected = dict(contribs)
        n = len(rail)
        if n > 1:
            i = rail.index(me)
            right = rail[(i + 1) % n]
            left = rail[(i - 1) % n]
            carry = contribs
            for _ in range(n - 1):
                self.comm.send(carry, right, tag=_TAG_HIER_RING - tag_shift)
                carry = self.comm.recv(left, tag=_TAG_HIER_RING - tag_shift)
                collected.update(carry)
        combined = canonical_reduce(
            [collected[r] for r in sorted(collected)], op
        )
        self._ring_allgather(
            combined, owned, bounds, local, _TAG_HIER_AG - tag_shift, out
        )

    # -- top-k sparse path --------------------------------------------------
    def _compressor(self, opts: CollectiveOptions) -> TopKCompressor:
        key = (opts.topk_ratio, opts.error_feedback)
        compressor = self._topk.get(key)
        if compressor is None:
            compressor = self._topk[key] = TopKCompressor(
                opts.topk_ratio, error_feedback=opts.error_feedback
            )
        return compressor

    def _topk_allreduce(
        self, arr: np.ndarray, op: str, name: str, opts: CollectiveOptions
    ) -> np.ndarray:
        flat = np.ascontiguousarray(arr, dtype=np.float64).reshape(-1)
        t0 = time.perf_counter()
        payload = self._compressor(opts).compress(name, flat)
        payloads = self.comm.allgather(payload)  # rank-ordered
        dense = TopKCompressor.densify(payloads, flat.size, op, self.comm.size)
        sparse_bytes = TopKCompressor.payload_nbytes(payload)
        ratio = sparse_bytes / flat.nbytes if flat.nbytes else 1.0
        self._record_chunk(
            t0, name, 0, sparse_bytes,
            algorithm="topk-allgather", compression="topk",
            compression_ratio=round(ratio, 6),
        )
        self.last_info = {
            "algorithm": "topk-allgather", "chunks": 1, "compression": "topk",
            "wire_bytes": sparse_bytes, "compression_ratio": ratio,
        }
        return dense.reshape(arr.shape).astype(arr.dtype, copy=False)

    def __repr__(self):
        return (
            f"<CollectiveEngine rank={self.comm.rank}/{self.comm.size} "
            f"{self.options.algorithm}/{self.options.compression}>"
        )
