"""The Communicator: point-to-point plus algorithmic collectives.

Each SPMD run shares one :class:`_Context` (mailboxes, barrier, abort
flag); each rank holds a :class:`Communicator` view of it. Every
blocking receive is an event wait: a rank sleeps on its own *arrival
condition*, which every ``put`` into one of its mailboxes and
:meth:`_Context.abort` notify — nothing on the message path polls.
Collectives
are built *on top of* send/recv with the textbook algorithms:

- ``bcast`` — binomial tree (log2 p rounds).
- ``allreduce`` — gather to rank 0, :func:`canonical_reduce` there,
  broadcast back: the reference the collective engine's schedules
  (:mod:`repro.comms.engine`, which runs the ring) are bit-identical to.
- ``allgather`` — ring (p-1 rounds).
- ``gather`` — every rank sends to the root.

Every operation increments per-rank counters (calls, bytes) that the
Horovod timeline and the analysis layer read.
"""

from __future__ import annotations

import collections
import numbers
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

__all__ = [
    "Communicator",
    "DeadlockError",
    "AbortError",
    "canonical_reduce",
    "payload_nbytes",
]

#: Seconds a blocking recv/barrier waits before declaring deadlock.
DEFAULT_TIMEOUT = 120.0

#: "no message" marker — ``None`` is a legal payload
_NOTHING = object()


class DeadlockError(RuntimeError):
    """A blocking operation timed out — the rank graph is stuck."""


class AbortError(RuntimeError):
    """Another rank failed; this rank was torn down."""


@dataclass
class OpStats:
    """Per-rank communication counters."""

    sends: int = 0
    recvs: int = 0
    bcasts: int = 0
    allreduces: int = 0
    allgathers: int = 0
    barriers: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


class _Mailbox:
    """FIFO of one ``(src, dst, tag)`` stream.

    ``put`` appends under the destination rank's arrival condition and
    notifies it, so whoever that rank has blocked — in ``recv`` or
    ``recv_any`` — wakes on arrival. Each stream has one consumer, so
    ``take`` needs no lock.
    """

    __slots__ = ("_items", "_arrival")

    def __init__(self, arrival: threading.Condition):
        self._items: collections.deque = collections.deque()
        self._arrival = arrival

    def put(self, obj: Any) -> None:
        with self._arrival:
            self._items.append(obj)
            self._arrival.notify_all()

    def take(self) -> Any:
        """The oldest message, or ``_NOTHING`` (never blocks)."""
        return self._items.popleft() if self._items else _NOTHING


class _Context:
    """State shared by all ranks of one SPMD run."""

    def __init__(self, size: int, timeout: float):
        self.size = size
        self.timeout = timeout
        self._mailboxes: dict[tuple[int, int, int], _Mailbox] = {}
        self._mail_lock = threading.Lock()
        #: one arrival condition per destination rank
        self._arrivals = [threading.Condition() for _ in range(size)]
        self._barrier = threading.Barrier(size)
        self.aborted = threading.Event()
        self.abort_cause: Optional[BaseException] = None

    def mailbox(self, src: int, dst: int, tag: int) -> _Mailbox:
        key = (src, dst, tag)
        with self._mail_lock:
            box = self._mailboxes.get(key)
            if box is None:
                box = self._mailboxes[key] = _Mailbox(self._arrivals[dst])
            return box

    def abort(self, cause: BaseException) -> None:
        if not self.aborted.is_set():
            self.abort_cause = cause
            self.aborted.set()
            self._barrier.abort()
            # the flag is set before each notify and waiters read it
            # under the same lock, so no blocked rank can miss it
            for arrival in self._arrivals:
                with arrival:
                    arrival.notify_all()

    def check_alive(self) -> None:
        if self.aborted.is_set():
            raise AbortError(f"aborted by peer: {self.abort_cause!r}")

    def wait_until(self, rank: int, ready: Callable[[], Any], timeout: float) -> Any:
        """Sleep on ``rank``'s arrival condition until ``ready()`` yields.

        The one blocking wait of the message path. ``ready`` runs under
        the condition's lock and returns ``_NOTHING`` for "not yet";
        anything else is returned to the caller. Returns ``_NOTHING``
        once ``timeout`` seconds pass without a result and raises
        :class:`AbortError` as soon as the run is aborted.
        """
        arrival = self._arrivals[rank]
        deadline = time.monotonic() + timeout
        with arrival:
            while True:
                self.check_alive()
                got = ready()
                if got is not _NOTHING:
                    return got
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return _NOTHING
                arrival.wait(remaining)

    def barrier_wait(self) -> None:
        try:
            self._barrier.wait(timeout=self.timeout)
        except threading.BrokenBarrierError:
            if self.aborted.is_set():
                raise AbortError(f"aborted by peer: {self.abort_cause!r}") from None
            raise DeadlockError(
                f"barrier timed out after {self.timeout}s"
            ) from None


def payload_nbytes(obj: Any) -> int:
    """Wire-size estimate of a payload, nested containers included.

    Arrays and byte strings report their true size; lists, tuples, sets
    and dicts are summed recursively (a fused-gradient parcel is a dict
    of arrays — counting it as 64 bytes undercounted the timeline's
    traffic attribution); plain numbers charge one word. Opaque objects
    keep the historical 64-byte control-message estimate.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, str)):
        return len(obj)
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(payload_nbytes(v) for v in obj) or 8
    if isinstance(obj, dict):
        return (
            sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
            or 8
        )
    if isinstance(obj, (bool, int, float, complex, np.generic)):
        return 8
    return 64  # flat estimate for opaque control objects


_payload_bytes = payload_nbytes


class Communicator:
    """One rank's handle on the SPMD run (MPI_COMM_WORLD analog)."""

    def __init__(self, context: _Context, rank: int, local_size: int = 1):
        if not 0 <= rank < context.size:
            raise ValueError(f"rank {rank} out of range for size {context.size}")
        self._context = context
        self.rank = rank
        self.size = context.size
        #: ranks per node — local_rank mirrors hvd.local_rank(), which the
        #: paper uses to pin one GPU per process (6 per Summit node).
        self.local_size = max(1, local_size)
        self.stats = OpStats()

    # -- local topology -----------------------------------------------------
    @property
    def local_rank(self) -> int:
        return self.rank % self.local_size

    @property
    def node_index(self) -> int:
        return self.rank // self.local_size

    # -- point-to-point -------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Hand ``obj`` to ``dest``'s mailbox and return at once.

        Nothing is copied or buffered: the receiver gets ``obj`` itself,
        so a send transfers it. The sender must not write to ``obj``, or
        to any array it views, after the call unless the schedule's
        release rule says the receiver is done with it. The collective
        engine has three such rules: ``_ring_gather``'s closing ack each
        way, ``_rhd``'s one ``_TAG_ACK`` per partner, and the
        hierarchical rail in ``_hierarchical``, which ships copies
        because no ack comes back.
        """
        self._check_peer(dest)
        self._check_alive()
        # account before put: the hand-off is zero-copy, so the moment
        # the receiver has the object it may mutate it (a dict payload
        # changing size mid-walk crashes the accounting)
        nbytes = _payload_bytes(obj)
        self._context.mailbox(self.rank, dest, tag).put(obj)
        self.stats.sends += 1
        self.stats.bytes_sent += nbytes

    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive with deadlock detection."""
        return self._recv("recv", source, tag, self._context.timeout)

    def recv_within(self, source: int, tag: int = 0, timeout: float = 1.0) -> Any:
        """Blocking receive with a caller-chosen deadline.

        Identical to :meth:`recv` except the deadline is ``timeout``
        instead of the context-wide default — for protocols that must
        decide quickly that a peer is not answering (an RPC with its own
        deadline, :meth:`repro.ps.RpcChannel.recv`) rather than wait out
        the full deadlock window.
        Raises :class:`DeadlockError` on expiry.
        """
        return self._recv("recv_within", source, tag, timeout)

    def recv_any(
        self,
        sources: "list[int] | tuple[int, ...]",
        tag: int = 0,
        timeout: Optional[float] = None,
    ) -> tuple[int, Any]:
        """Receive the next message from *any* of ``sources`` on ``tag``.

        Scans the per-source mailboxes in the order given
        (MPI_ANY_SOURCE analog) and returns ``(source, payload)`` for
        the first message found, sleeping until one arrives. A serving
        front-end collecting results from whichever replica finishes
        first needs this; pinning recv order to a fixed source would
        serialize the replicas. Raises :class:`DeadlockError` after
        ``timeout`` (context default when None) with no message from any
        source; ``timeout=0`` makes it a non-blocking probe.
        """
        if not sources:
            raise ValueError("recv_any needs at least one source")
        boxes = []
        for src in sources:
            self._check_peer(src)
            boxes.append((src, self._context.mailbox(src, self.rank, tag)))

        def ready():
            for src, box in boxes:
                obj = box.take()
                if obj is not _NOTHING:
                    return src, obj
            return _NOTHING

        limit = timeout if timeout is not None else self._context.timeout
        src, obj = self._await(ready, limit, "recv_any", list(sources), tag)
        self._account_recv(obj)
        return src, obj

    def _recv(self, op: str, source: int, tag: int, timeout: float) -> Any:
        self._check_peer(source)
        box = self._context.mailbox(source, self.rank, tag)
        obj = self._await(box.take, timeout, op, source, tag)
        self._account_recv(obj)
        return obj

    def _await(self, ready: Callable[[], Any], timeout: float, op: str, peer, tag: int) -> Any:
        """Block on this rank's arrival condition; expiry is a deadlock."""
        got = self._context.wait_until(self.rank, ready, timeout)
        if got is _NOTHING:
            raise DeadlockError(
                f"rank {self.rank} {op} from {peer} tag {tag} "
                f"timed out after {timeout}s"
            )
        return got

    def _account_recv(self, obj: Any) -> None:
        self.stats.recvs += 1
        self.stats.bytes_received += _payload_bytes(obj)

    # -- collectives ------------------------------------------------------------
    def barrier(self) -> None:
        """Block until every rank arrives."""
        self.stats.barriers += 1
        self._context.barrier_wait()

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Binomial-tree broadcast; returns the root's object everywhere."""
        self._check_peer(root)
        self.stats.bcasts += 1
        return self._tree_bcast(obj, root)

    def _tree_bcast(self, obj: Any, root: int) -> Any:
        vrank = (self.rank - root) % self.size
        mask = 1
        data = obj if self.rank == root else None
        while mask < self.size:
            if vrank < mask:
                peer = vrank + mask
                if peer < self.size:
                    self.send(data, (peer + root) % self.size, tag=-1)
            elif vrank < 2 * mask:
                data = self.recv((vrank - mask + root) % self.size, tag=-1)
            mask <<= 1
        return data

    def allreduce(self, value: Any, op: str = "sum") -> Any:
        """Allreduce: gather to rank 0, reduce there, broadcast back.

        ``op`` is ``'sum'``, ``'mean'``, ``'max'``, or ``'min'``. Rank 0
        combines every rank's contribution with :func:`canonical_reduce`,
        so this is the reference the collective engine's ring, rhd and
        hierarchical schedules are bit-identical to. An array comes back
        as this rank's own array, in the input's dtype and shape; a
        numeric list or tuple as a float64 array, reduced elementwise.
        """
        if op not in ("sum", "mean", "max", "min"):
            raise ValueError(f"unsupported allreduce op {op!r}")
        self.stats.allreduces += 1
        gathered = self.gather(value, root=0)
        result = canonical_reduce(gathered, op) if self.rank == 0 else None
        result = self._tree_bcast(result, 0)
        if isinstance(value, np.ndarray) and isinstance(result, np.ndarray):
            return result.astype(value.dtype)
        return result

    def allgather(self, obj: Any) -> list:
        """Ring allgather; returns the rank-ordered list everywhere."""
        self.stats.allgathers += 1
        gathered: list = [None] * self.size
        gathered[self.rank] = obj
        if self.size == 1:
            return gathered
        right = (self.rank + 1) % self.size
        left = (self.rank - 1) % self.size
        carry_idx = self.rank
        for _ in range(self.size - 1):
            self.send((carry_idx, gathered[carry_idx]), right, tag=-2)
            carry_idx, payload = self.recv(left, tag=-2)
            gathered[carry_idx] = payload
        return gathered

    def gather(self, obj: Any, root: int = 0) -> Optional[list]:
        """Gather to root; returns the list at root, None elsewhere."""
        self._check_peer(root)
        if self.rank == root:
            out = [None] * self.size
            out[root] = obj
            for src in range(self.size):
                if src != root:
                    idx, payload = self.recv(src, tag=-3)
                    out[idx] = payload
            return out
        self.send((self.rank, obj), root, tag=-3)
        return None

    # -- guards --------------------------------------------------------------------
    def _check_peer(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(f"peer rank {rank} out of range [0, {self.size})")

    def _check_alive(self) -> None:
        self._context.check_alive()

    def __repr__(self):
        return f"<Communicator rank={self.rank}/{self.size}>"


#: float64 elements per block of an ``out=`` fold that cannot run in
#: place (512 KiB, the optimizers' block size)
_FOLD_BLOCK = 1 << 16


def canonical_reduce(values: list, op: str, out: Optional[np.ndarray] = None):
    """The one reduction everything funnels through.

    Combines per-rank contributions (already ordered by ascending rank)
    in float64. Every collective algorithm — the communicator's tree,
    the comms engine's ring, rhd, and hierarchical schedules —
    moves contributions through its own message pattern but defers the
    arithmetic to this routine, which is what makes their results
    bit-identical to each other.

    Real scalars combine with Python arithmetic. Anything else is an
    array: numeric lists and tuples reduce elementwise, like the arrays
    they convert to (so a list comes back as a float64 array), and a
    non-numeric contribution raises ``TypeError``.

    Arrays are folded into one fresh float64 array in ascending rank
    order: a sum starts from +0.0 (as numpy's reduction does, so a lone
    ``-0.0`` sums to ``0.0``), max/min from the first contribution, and
    a mean is the sum divided by the count. For contributions of two or
    more elements that is what ``np.stack(values).<op>(axis=0)``
    computes (numpy walks the rank axis in order), without the p × n
    copy. A stack of one-element contributions would instead reduce
    along a contiguous axis, which numpy sums pairwise from 8 terms on;
    the fold gives every element the same order whatever the size.
    Shapes must match exactly; nothing is broadcast.

    ``out`` (a C-contiguous floating array of the contributions' shape)
    receives the result, cast to its dtype, and is returned. It may be
    one of the contributions: the comms engine's owner step folds into
    its own gradient slab. The fold starts from rank 0's contribution,
    so a float64 ``out`` that overlaps no other contribution is folded
    in place; any other ``out`` is folded one block at a time through a
    float64 scratch, every contribution's block read before ``out``'s
    block is written. Either way each element sees the same operations
    in the same order, so the bits are those of the fresh result.
    """
    if out is not None or not all(isinstance(v, numbers.Real) for v in values):
        arrays = [np.asarray(v) for v in values]
        for v, a in zip(values, arrays):
            if a.dtype.kind not in "biuf":
                raise TypeError(f"cannot reduce a {type(v).__name__} contribution")
        shape = arrays[0].shape
        for a in arrays + ([] if out is None else [out]):
            if a.shape != shape:
                raise ValueError(
                    f"cannot reduce contributions of shapes {shape} and {a.shape}"
                )
        if out is not None:
            return _fold_into(arrays, op, out)
        total = np.empty(shape)
        _fold(arrays, op, total)
        # 0-d contributions reduce to a float64 scalar, as numpy's do
        return total if total.ndim else total[()]
    total = values[0]
    for v in values[1:]:
        if op in ("sum", "mean"):
            total = total + v
        elif op == "max":
            total = max(total, v)
        else:
            total = min(total, v)
    if op == "mean":
        total = total / len(values)
    return total


def _fold(arrays: list, op: str, total: np.ndarray) -> None:
    """The rank-order fold of ``arrays`` into the float64 ``total``."""
    if op in ("sum", "mean"):
        # numpy seeds a sum with +0.0; adding it makes the first copy
        np.add(arrays[0], 0.0, out=total, dtype=np.float64)
        fold = np.add
    else:
        np.copyto(total, arrays[0])
        fold = np.maximum if op == "max" else np.minimum
    for a in arrays[1:]:
        fold(total, a, out=total)
    if op == "mean":
        np.true_divide(total, len(arrays), out=total)


def _fold_into(arrays: list, op: str, out: np.ndarray) -> np.ndarray:
    """``canonical_reduce`` into ``out``, which may alias a contribution."""
    if out.dtype.kind != "f" or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous floating array")
    if out.dtype == np.float64 and not any(
        np.may_share_memory(out, a) for a in arrays[1:]
    ):
        _fold(arrays, op, out)
        return out
    target = out.reshape(-1)
    flats = [a.reshape(-1) for a in arrays]
    scratch = np.empty(min(target.size, _FOLD_BLOCK))
    for start in range(0, target.size, _FOLD_BLOCK):
        stop = min(start + _FOLD_BLOCK, target.size)
        block = scratch[: stop - start]
        _fold([a[start:stop] for a in flats], op, block)
        target[start:stop] = block
    return out
