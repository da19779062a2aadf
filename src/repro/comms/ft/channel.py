"""FtChannel: a reliable, failure-aware transport over `repro.mpi`.

Wraps (not subclasses) a :class:`repro.mpi.Communicator` and exposes the
same ``send``/``recv`` surface, so every PR 5 engine algorithm — ring,
recursive halving-doubling, hierarchical — runs unchanged over it. What
the wrapper adds:

- **Envelopes**: each data message travels as
  ``("ftenv", epoch, seq, crc, payload)``. Sequence numbers are per
  ``(peer, tag)`` stream; CRC-32 covers the walked payload structure
  (array bytes, dtype/shape, nested containers), so a corrupted chunk is
  caught on arrival, not at convergence time.
- **Deadlines + retransmission**: a recv that misses its chunk deadline
  sends a NACK on the control tag; the sender's service re-puts
  the stored envelope. Backoff between requests is the capped
  exponential of :class:`RetryPolicy`, without jitter.
- **Heartbeats**: a per-rank service — one long job on a
  :class:`~repro.worker.Worker` — beats every peer and feeds arrivals to
  the :class:`~repro.comms.ft.detector.PhiAccrualDetector`; the same
  job services NACKs, death notices, and restart signals,
  so the control plane stays live while the main thread blocks in a
  collective (or sleeps inside an injected delay fault).
- **Restart signals**: demotion and rebuild are collective decisions —
  one rank abandoning a schedule mid-flight would deadlock its peers.
  The initiating rank broadcasts a ``restart`` control message with a
  bumped epoch; every peer's next ``recv`` (or the engine's next chunk
  boundary) raises :class:`CollectiveRestart`, all ranks advance to the
  new epoch together, and stale in-flight envelopes of the old epoch
  are discarded by their epoch stamp.

Message-level fault injection hooks in here: the channel asks the run's
:class:`repro.resilience.FaultInjector` (stashed on the communicator by
``run_spmd``) before each send and applies drop / corrupt / delay /
rank-kill actions to its own traffic — the injector stays a passive
schedule, the channel owns the semantics.
"""

from __future__ import annotations

import queue
import threading
import time
import zlib
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Iterable, Optional

import numpy as np

from repro.comms.ft.detector import PEER_DEAD, detector_for
from repro.comms.ft.options import (
    DEFAULT_FT_OPTIONS,
    DEMOTION_LADDER,
    FaultToleranceOptions,
)
from repro.worker import Job, Worker

__all__ = [
    "FtChannel",
    "CollectiveRestart",
    "PeerDeadError",
    "RankKilledError",
    "InjectedFault",
    "TransientCollectiveError",
    "RetryPolicy",
    "payload_checksum",
]

#: control-plane tags, far below the engine's data tags (-101..-107)
_TAG_FT_BEAT = -120
_TAG_FT_CTRL = -121

#: recv wakes at least this often to notice restarts and aborts
_RECV_SLICE = 0.005

#: retransmit buffer depth per (peer, tag) stream
_STORE_DEPTH = 8

#: growth factor and cap of the retransmit backoff
RETRY_FACTOR = 2.0
RETRY_MAX_DELAY_S = 0.05

#: the service job ends after this long without data-plane traffic
IDLE_SHUTDOWN_S = 2.0


class InjectedFault(RuntimeError):
    """Base class for every injector-raised error."""


class TransientCollectiveError(InjectedFault):
    """A collective operation failed transiently.

    Carries the failure's location — failing chunk index, resolved
    algorithm, peer rank, tensor name — so recovery can target the
    retransmit/demotion instead of replaying the whole run. Raisers
    that know only part of the context (the channel knows the peer, the
    engine's chunk loop knows chunk and algorithm) compose it via
    :meth:`attach_context`, which never overwrites a field already set.
    """

    def __init__(
        self,
        message: str = "",
        *,
        chunk: Optional[int] = None,
        algorithm: Optional[str] = None,
        peer: Optional[int] = None,
        tensor: Optional[str] = None,
    ):
        super().__init__(message)
        self.chunk = chunk
        self.algorithm = algorithm
        self.peer = peer
        self.tensor = tensor

    def attach_context(self, **context) -> "TransientCollectiveError":
        """Fill in missing location fields; returns self for chaining."""
        for key in ("chunk", "algorithm", "peer", "tensor"):
            if key in context and getattr(self, key) is None:
                setattr(self, key, context[key])
        return self

    def context(self) -> dict:
        """The non-None location fields (for reports and assertions)."""
        return {
            key: getattr(self, key)
            for key in ("chunk", "algorithm", "peer", "tensor")
            if getattr(self, key) is not None
        }

    def __str__(self):
        base = super().__str__()
        parts = [f"{k}={v}" for k, v in self.context().items()]
        return f"{base} [{', '.join(parts)}]" if parts else base


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for failed attempts.

    ``jitter`` spreads retries by up to that fraction of the capped
    delay — but only from an *injected* RNG: the policy never touches
    global ``random``/``np.random`` state, so SPMD ranks that each seed
    their own generator back off bit-reproducibly
    (:func:`repro.resilience.run_resilient_benchmark` derives its
    generator from the run seed; the FT channel backs off without
    jitter).
    """

    max_retries: int = 3
    base_delay_s: float = 0.05
    factor: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {self.max_retries}")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {self.jitter}")

    def delay_s(
        self, attempt: int, rng: Optional[np.random.Generator] = None
    ) -> float:
        """Backoff before retrying after failed attempt ``attempt``.

        With ``jitter > 0`` an RNG must be supplied — refusing to fall
        back to global random state is what makes the jitter seedable.
        """
        delay = min(self.base_delay_s * self.factor**attempt, self.max_delay_s)
        if self.jitter > 0.0:
            if rng is None:
                raise ValueError(
                    "jittered backoff needs an injected rng "
                    "(np.random.Generator) for reproducibility"
                )
            delay *= 1.0 + self.jitter * float(rng.random())
        return delay


class RankKilledError(RuntimeError):
    """This rank was killed by an injected ``rank_kill`` fault.

    ``rank_death`` marks the exception as a *survivable* death for
    :func:`repro.mpi.run_spmd`: the worker is recorded dead and the run
    continues, instead of aborting every peer.
    """

    rank_death = True


class PeerDeadError(RuntimeError):
    """A peer was classified dead while this rank waited on it."""

    def __init__(self, peer: int, dead: Iterable[int]):
        self.peer = int(peer)
        self.dead = frozenset(int(d) for d in dead) | {self.peer}
        super().__init__(f"peer rank {peer} is dead (dead set: {sorted(self.dead)})")


class CollectiveRestart(Exception):
    """A peer initiated a collective restart (demotion or rebuild).

    Raised out of ``recv`` / the engine's chunk boundary on every
    surviving rank; the FT engine catches it, advances the channel
    epoch, and re-executes from the original input.
    """

    def __init__(self, kind: str, epoch: int, *, algorithm: Optional[str] = None,
                 dead: Iterable[int] = ()):
        self.kind = kind  # 'demote' | 'rebuild'
        self.epoch = int(epoch)
        self.algorithm = algorithm
        self.dead = frozenset(int(d) for d in dead)
        detail = algorithm if kind == "demote" else sorted(self.dead)
        super().__init__(f"collective restart: {kind} -> {detail} (epoch {epoch})")


# -- checksums ---------------------------------------------------------------

def payload_checksum(obj: Any, crc: int = 0) -> int:
    """CRC-32 over the walked payload structure (deterministic order)."""
    if isinstance(obj, np.ndarray):
        crc = zlib.crc32(repr((obj.dtype.str, obj.shape)).encode(), crc)
        # feed the buffer directly: no tobytes() copy, and crc32
        # releases the GIL on large buffers so rank threads overlap
        contiguous = np.ascontiguousarray(obj)
        return zlib.crc32(contiguous.reshape(-1).view(np.uint8).data, crc)
    if isinstance(obj, (bytes, bytearray)):
        return zlib.crc32(bytes(obj), crc)
    if isinstance(obj, str):
        return zlib.crc32(obj.encode(), crc)
    if isinstance(obj, (list, tuple)):
        crc = zlib.crc32(f"<{type(obj).__name__}:{len(obj)}>".encode(), crc)
        for item in obj:
            crc = payload_checksum(item, crc)
        return crc
    if isinstance(obj, dict):
        crc = zlib.crc32(f"<dict:{len(obj)}>".encode(), crc)
        for key in sorted(obj, key=repr):
            crc = zlib.crc32(repr(key).encode(), crc)
            crc = payload_checksum(obj[key], crc)
        return crc
    return zlib.crc32(repr(obj).encode(), crc)


def _corrupt_copy(obj: Any) -> Any:
    """A deep-ish copy with one bit flipped in the first array found."""
    if isinstance(obj, np.ndarray):
        flipped = obj.copy()
        raw = flipped.view(np.uint8).reshape(-1)
        if raw.size:
            raw[raw.size // 2] ^= 0xFF
        return flipped
    if isinstance(obj, dict):
        out, done = {}, False
        for key, value in obj.items():
            if not done and isinstance(value, (np.ndarray, dict, list, tuple)):
                out[key] = _corrupt_copy(value)
                done = True
            else:
                out[key] = value
        return out
    if isinstance(obj, (list, tuple)):
        out, done = [], False
        for value in obj:
            if not done and isinstance(value, (np.ndarray, dict, list, tuple)):
                out.append(_corrupt_copy(value))
                done = True
            else:
                out.append(value)
        return type(obj)(out)
    return obj


# -- the channel --------------------------------------------------------------

class FtChannel:
    """Reliable failure-aware ``send``/``recv`` over a Communicator."""

    def __init__(
        self,
        comm,
        options: Optional[FaultToleranceOptions] = None,
        tracer=None,
    ):
        self.comm = comm
        self.options = options if options is not None else DEFAULT_FT_OPTIONS
        self._tracer = tracer
        self.detector = detector_for(self.options)
        #: the rank fault plans target: the *original* SPMD rank, stable
        #: across communicator rebuilds that renumber ``comm.rank``
        self._fault_rank = comm.rank
        self.injector = getattr(comm, "fault_injector", None)
        self.epoch = 0
        self.counters: dict[str, int] = defaultdict(int)
        #: the retransmit backoff policy
        self.retry = RetryPolicy(
            max_retries=self.options.max_retransmits,
            base_delay_s=self.options.retry_base_delay_s,
            factor=RETRY_FACTOR,
            max_delay_s=RETRY_MAX_DELAY_S,
        )
        self._send_seq: dict[tuple[int, int], int] = {}
        self._recv_seq: dict[tuple[int, int], int] = {}
        self._fence_seq: dict[str, int] = {}
        self._stash: dict[tuple[int, int], dict[int, Any]] = {}
        self._store: dict[tuple[int, int], dict[int, tuple]] = {}
        self._store_lock = threading.Lock()
        self._msg_index = 0
        self._restart_lock = threading.Lock()
        self._pending: Optional[dict] = None
        self._dead_peers: set[int] = set()
        self._killed = False
        self._stop = threading.Event()
        #: the heartbeat service: one long job, resubmitted after it
        #: ends (idle exit) by the next :meth:`ensure_started`
        self._worker = Worker(f"ft-service-r{comm.rank}")
        self._service: Optional[Job] = None
        self._last_activity = time.monotonic()

    # -- delegation ----------------------------------------------------------
    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def size(self) -> int:
        return self.comm.size

    @property
    def local_size(self) -> int:
        return self.comm.local_size

    @property
    def local_rank(self) -> int:
        return self.comm.local_rank

    @property
    def node_index(self) -> int:
        return self.comm.node_index

    @property
    def stats(self):
        return self.comm.stats

    def __getattr__(self, name):
        # collectives the engine uses off the data path (bcast, barrier,
        # tree allreduce) run on the raw comm
        return getattr(self.comm, name)

    # -- lifecycle -----------------------------------------------------------
    def ensure_started(self) -> None:
        """Start (or restart after idle exit) the heartbeat service."""
        if self._killed or self.comm.size == 1:
            return
        if self._service is None or self._service.done():
            if self._service is not None:
                self._service.wait()  # a failed service raises here
            self._stop.clear()
            self._last_activity = time.monotonic()
            for peer in self._peers():
                if peer not in self._dead_peers:
                    # a silence clock left over from before an idle
                    # shutdown would condemn a live peer instantly;
                    # restart its history (confirmed dead stay dead)
                    self.detector.forget([peer])
                self.detector.watch(peer)
            self._service = self._worker.submit(self._service_loop)

    def close(self) -> None:
        """Stop the heartbeat service and join its thread."""
        self._stop.set()
        self._service = None
        self._worker.close()

    def _touch(self) -> None:
        self._last_activity = time.monotonic()

    def _peers(self) -> list[int]:
        me = self.comm.rank
        return [r for r in range(self.comm.size) if r != me]

    def _trace(self):
        t = self._tracer
        return t() if callable(t) else t

    def _count(self, name: str, value: int = 1, **attrs) -> None:
        self.counters[name] += value
        tracer = self._trace()
        if tracer is not None:
            tracer.counter(f"ft.{name}", value, rank=self.comm.rank, **attrs)

    # -- heartbeat service ---------------------------------------------------
    def _service_loop(self) -> None:
        """Beat peers, feed the detector, serve NACKs and signals."""
        ctx = self.comm._context
        me = self.comm.rank
        # beats ride a shared timestamp board instead of per-peer
        # queues: ranks are threads in one process, and 2·world queue
        # hops per tick per rank is pure lock churn that taxes the data
        # plane. Control (NACK / FIN / restart) stays message-based —
        # only liveness needs to travel this often. A dead rank's
        # service thread stops stamping, so silence-based detection is
        # unchanged; adopt() restarts the loop on the rebuilt context,
        # whose board starts empty.
        board = ctx.__dict__.setdefault("_ft_beat_board", {})
        last_seen: dict[int, float] = {}
        ctrl_boxes = {
            peer: ctx.mailbox(peer, me, _TAG_FT_CTRL)
            for peer in self._peers()
        }
        while not self._stop.is_set():
            if ctx.aborted.is_set():
                return
            now = time.monotonic()
            if now - self._last_activity > IDLE_SHUTDOWN_S:
                return  # data plane went quiet; reap (restarted on demand)
            board[me] = now
            for peer, ctrl_box in ctrl_boxes.items():
                if peer not in self._dead_peers:
                    stamp = board.get(peer)
                    if stamp is not None and stamp != last_seen.get(peer):
                        last_seen[peer] = stamp
                        self.detector.beat(peer, now=stamp)
                while True:
                    try:
                        msg = ctrl_box.get_nowait()
                    except queue.Empty:
                        break
                    self._handle_ctrl(msg)
            self._stop.wait(self.options.heartbeat_interval_s)

    def _handle_ctrl(self, msg: tuple) -> None:
        kind = msg[0]
        if kind == "nack":
            _, data_tag, seq, frm = msg
            with self._store_lock:
                env = self._store.get((frm, data_tag), {}).get(seq)
            if env is not None:
                ctx = self.comm._context
                ctx.mailbox(self.comm.rank, frm, data_tag).put(env)
                self._count("retransmits_served", peer=frm, tag=data_tag, seq=seq)
        elif kind == "fin":
            _, frm = msg
            self.detector.mark_dead(frm)
            self._dead_peers.add(frm)
            self._count("death_notices", peer=frm)
        elif kind == "restart":
            _, rkind, epoch, payload, _frm = msg
            self._note_restart(rkind, epoch, payload)

    # -- restart signalling ----------------------------------------------------
    def _note_restart(self, kind: str, epoch: int, payload) -> None:
        with self._restart_lock:
            cur = self._pending
            if cur is not None and epoch < cur["epoch"]:
                return
            if cur is None or epoch > cur["epoch"]:
                self._pending = {"kind": kind, "epoch": epoch, "payload": payload}
                return
            # same epoch from two initiators: rebuild wins over demote;
            # between demotions, the deeper ladder step wins; between
            # rebuilds, dead sets union
            if kind == "rebuild" and cur["kind"] == "rebuild":
                cur["payload"] = tuple(sorted(set(cur["payload"]) | set(payload)))
            elif kind == "rebuild":
                self._pending = {"kind": kind, "epoch": epoch, "payload": payload}
            elif cur["kind"] == "demote":
                ladder = list(DEMOTION_LADDER)
                if ladder.index(payload) > ladder.index(cur["payload"]):
                    cur["payload"] = payload

    def raise_pending(self) -> None:
        """Raise the pending :class:`CollectiveRestart`, if any."""
        with self._restart_lock:
            p = self._pending
        if p is None or p["epoch"] <= self.epoch:
            return
        if p["kind"] == "demote":
            raise CollectiveRestart("demote", p["epoch"], algorithm=p["payload"])
        raise CollectiveRestart("rebuild", p["epoch"], dead=p["payload"])

    def broadcast_restart(self, kind: str, *, algorithm: Optional[str] = None,
                          dead: Iterable[int] = ()) -> int:
        """Signal every peer to restart the collective; returns the epoch."""
        epoch = self.epoch + 1
        payload = algorithm if kind == "demote" else tuple(sorted(set(dead)))
        ctx = self.comm._context
        me = self.comm.rank
        for peer in self._peers():
            if peer in self._dead_peers:
                continue
            ctx.mailbox(me, peer, _TAG_FT_CTRL).put(("restart", kind, epoch, payload, me))
        self._note_restart(kind, epoch, payload)
        self._count(f"restart_{kind}", epoch=epoch)
        return epoch

    def advance_epoch(self, epoch: int) -> None:
        """Enter ``epoch``: reset streams, drop stale state and signals."""
        with self._restart_lock:
            if self._pending is not None and self._pending["epoch"] <= epoch:
                self._pending = None
        self.epoch = epoch
        self._send_seq.clear()
        self._recv_seq.clear()
        self._fence_seq.clear()
        self._stash.clear()
        with self._store_lock:
            self._store.clear()

    def adopt(self, comm, epoch: int) -> None:
        """Swap in the rebuilt communicator (renumbered ranks)."""
        self.close()
        self.comm = comm
        self.detector.forget(range(max(comm.size, 64)))
        self._dead_peers.clear()
        self.advance_epoch(epoch)
        self.ensure_started()

    # -- completion fence ------------------------------------------------------
    def _alive_count(self) -> int:
        dead = set(self._dead_peers) | self.detector.dead_peers(
            range(self.comm.size)
        )
        dead.discard(self.comm.rank)
        return self.comm.size - len(dead)

    def fence(self, tag: str, slice_s: float = 0.005) -> None:
        """Reusable completion barrier among the alive ranks.

        A message fence would serialize 2·world envelope hops through
        the root per collective; ranks are threads in one process, so
        arrival counting is a shared dict update under one condition
        variable. Failure semantics are preserved by slice polling:
        waiters re-raise pending restarts, honour context aborts, and
        let the detector condemn silence, so a rank that dies inside
        (or short of) the fence shrinks the arrival target or routes
        every rank into the same restart. Fence keys carry the channel
        epoch — any abandonment advances the epoch, which also resets
        the per-tag fence sequence on every rank, keeping survivors'
        keys aligned after recovery.
        """
        if self._killed:
            raise RankKilledError(f"rank {self.comm.rank} is dead")
        if self.comm.size == 1:
            return
        self._touch()
        ctx_d = self.comm._context.__dict__
        lock = ctx_d.setdefault("_ft_fence_lock", threading.Lock())
        cond = ctx_d.get("_ft_fence_cond")
        if cond is None:
            cond = ctx_d.setdefault("_ft_fence_cond", threading.Condition(lock))
        table = ctx_d.setdefault("_ft_fences", {})
        seq = self._fence_seq.get(tag, 0)
        self._fence_seq[tag] = seq + 1
        with cond:
            # completion is a monotone counter, not a per-instance flag:
            # a rank transiently (mis)judged dead while its peers passed
            # the fence must find "already completed" and move on, never
            # a fresh entry it would wait on forever
            state = table.setdefault(
                (self.epoch, tag), {"completed": 0, "arrivals": {}}
            )
            if state["completed"] > seq:
                return
            arrivals = state["arrivals"]
            arrivals[seq] = arrivals.get(seq, 0) + 1
            while state["completed"] <= seq:
                if arrivals.get(seq, 0) >= self._alive_count():
                    state["completed"] = seq + 1
                    arrivals.pop(seq, None)
                    cond.notify_all()
                    break
                cond.wait(timeout=slice_s)
                if state["completed"] > seq:
                    break
                self.raise_pending()
                self.comm._check_alive()
                self._touch()

    # -- data plane ------------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Enveloped send with store-for-retransmit and fault hooks."""
        self._touch()
        if self._killed:
            raise RankKilledError(f"rank {self.comm.rank} is dead")
        o = self.options
        key = (dest, tag)
        seq = self._send_seq.get(key, 0)
        self._send_seq[key] = seq + 1
        crc = payload_checksum(obj) if o.checksum else 0
        env = ("ftenv", self.epoch, seq, crc, obj)
        with self._store_lock:
            store = self._store.setdefault(key, {})
            store[seq] = env
            # seqs are consecutive within an epoch (advance_epoch clears
            # the store), so one pop per send keeps the window bounded
            store.pop(seq - _STORE_DEPTH, None)
        index = self._msg_index
        self._msg_index += 1
        env_out, drop = env, False
        if self.injector is not None:
            for spec in self.injector.on_ft_message(self._fault_rank, index):
                if spec.kind == "rank_kill":
                    self._die()
                elif spec.kind == "msg_delay":
                    self._count("faults_delayed", peer=dest)
                    time.sleep(spec.delay_s)
                elif spec.kind == "msg_drop":
                    self._count("faults_dropped", peer=dest)
                    drop = True
                elif spec.kind == "msg_corrupt":
                    self._count("faults_corrupted", peer=dest)
                    env_out = ("ftenv", self.epoch, seq, crc, _corrupt_copy(obj))
        if drop:
            return  # lost on the wire; the receiver's NACK recovers it
        self.comm.send(env_out, dest, tag)

    def _die(self) -> None:
        """Execute an injected rank kill: notify peers, stop, raise."""
        self._killed = True
        if self.options.death_notice:
            ctx = self.comm._context
            me = self.comm.rank
            for peer in self._peers():
                ctx.mailbox(me, peer, _TAG_FT_CTRL).put(("fin", me))
        self._stop.set()
        raise RankKilledError(
            f"rank {self.comm.rank} killed mid-collective by fault injection"
        )

    def recv(self, source: int, tag: int = 0) -> Any:
        """Deadline-guarded receive with NACK retransmission and CRC."""
        self._touch()
        o = self.options
        me = self.comm.rank
        key = (source, tag)
        stash = self._stash.setdefault(key, {})
        box = self.comm._context.mailbox(source, me, tag)
        attempts = 0
        deadline = time.monotonic() + o.chunk_deadline_s

        def request_retransmit(expected: int, why: str) -> float:
            nonlocal attempts
            if attempts >= o.max_retransmits:
                raise TransientCollectiveError(
                    f"rank {me} gave up on message seq {expected} from rank "
                    f"{source} (tag {tag}) after {attempts} retransmission "
                    f"requests ({why})",
                    peer=source,
                )
            attempts += 1
            self.detector.note_slow(source)
            self._count("retransmit_requests", peer=source, why=why)
            ctx = self.comm._context
            ctx.mailbox(me, source, _TAG_FT_CTRL).put(("nack", tag, expected, me))
            time.sleep(self.retry.delay_s(attempts - 1))
            return time.monotonic() + o.chunk_deadline_s

        while True:
            expected = self._recv_seq.get(key, 0)
            if expected in stash:
                payload = stash.pop(expected)
                self._recv_seq[key] = expected + 1
                return payload
            # drain anything already delivered before honouring a restart:
            # a rank whose message has arrived is not stuck, and preempting
            # it (e.g. out of a completion fence whose COMMIT is sitting in
            # the mailbox) would make it re-execute a finished collective
            # its peers have moved past
            try:
                env = box.get_nowait()
            except queue.Empty:
                self.raise_pending()
                self.comm._check_alive()
                try:
                    env = box.get(timeout=_RECV_SLICE)
                except queue.Empty:
                    if time.monotonic() < deadline:
                        continue
                    if self.detector.state(source) == PEER_DEAD:
                        raise PeerDeadError(
                            source,
                            self.detector.dead_peers(range(self.comm.size)),
                        )
                    deadline = request_retransmit(expected, "timeout")
                    continue
            if not (isinstance(env, tuple) and len(env) == 5 and env[0] == "ftenv"):
                return env  # plain payload from a non-FT sender on this tag
            _, epoch, seq, crc, payload = env
            if epoch != self.epoch:
                self._count("stale_epoch_dropped")
                continue
            if seq < expected:
                self._count("duplicates_dropped")
                continue
            if o.checksum and payload_checksum(payload) != crc:
                self._count("checksum_failures", peer=source, seq=seq)
                deadline = request_retransmit(expected, "checksum")
                continue
            if seq > expected:
                stash[seq] = payload  # filled later; predecessor was lost
                continue
            self._recv_seq[key] = expected + 1
            return payload

    def sendrecv(self, obj: Any, dest: int, source: int, tag: int = 0) -> Any:
        self.send(obj, dest, tag)
        return self.recv(source, tag)

    def __repr__(self):
        return (
            f"<FtChannel rank={self.comm.rank}/{self.comm.size} "
            f"epoch={self.epoch}>"
        )
