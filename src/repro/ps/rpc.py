"""A small RPC substrate over the runtime's point-to-point messages.

The serving subsystem (:mod:`repro.serve`) needs typed request and
reply envelopes between a front-end and worker replicas, rather than
raw ``send``/``recv`` pairs on magic tags: an :class:`RpcChannel` wraps
one rank's :class:`~repro.mpi.Communicator` and speaks
:class:`RpcMessage` envelopes (kind + sequence number + payload) on a
private tag.

Two styles are supported, both built from the same envelopes:

- **one-way pipelining** — :meth:`RpcChannel.post` a request and keep
  going; match replies to requests later by ``seq`` via
  :meth:`RpcChannel.recv` / :meth:`RpcChannel.recv_any`. This is how a
  serving front-end keeps every replica busy.
- **blocking call** — :meth:`RpcChannel.call` posts and waits for the
  reply carrying the same ``seq`` (a classic synchronous RPC).

The gRPC layer the paper's distributed TensorFlow rides on plays the
same role between clients and parameter servers; here the wire is the
in-process mailbox fabric, so an RPC costs what the fabric model says
a point-to-point message of that size costs.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.mpi.communicator import Communicator

__all__ = ["RpcChannel", "RpcMessage", "RPC_TAG"]

#: default tag of the RPC plane — away from the collectives' negative tags
RPC_TAG = 110


@dataclass(frozen=True)
class RpcMessage:
    """One envelope on the RPC plane.

    ``kind`` is the method name ("batch", "swap", "result", ...),
    ``seq`` matches a reply to its request (replies echo the request's
    ``seq``), ``sender`` is the origin rank, and ``payload`` is the
    argument or return value.
    """

    kind: str
    seq: int
    sender: int
    payload: Any = None

    def is_reply_to(self, seq: int) -> bool:
        return self.seq == seq


class RpcChannel:
    """Typed request/reply messaging for one rank.

    Thread-safe for posting (the serving front-end posts from its
    dispatcher thread while the collector thread receives); receiving
    from the same source on the same channel should stay on one thread,
    as with any mailbox consumer.
    """

    def __init__(self, comm: Communicator, tag: int = RPC_TAG):
        self._comm = comm
        self._tag = tag
        self._seq = itertools.count()
        self._lock = threading.Lock()

    @property
    def rank(self) -> int:
        return self._comm.rank

    # -- sending ------------------------------------------------------------
    def post(self, dest: int, kind: str, payload: Any = None) -> int:
        """Send a request envelope without waiting; returns its ``seq``."""
        with self._lock:
            seq = next(self._seq)
        self._comm.send(
            RpcMessage(kind=kind, seq=seq, sender=self._comm.rank, payload=payload),
            dest,
            tag=self._tag,
        )
        return seq

    def reply(self, dest: int, request: RpcMessage, kind: str, payload: Any = None) -> None:
        """Answer ``request``: echoes its ``seq`` so the caller can match."""
        self._comm.send(
            RpcMessage(
                kind=kind, seq=request.seq, sender=self._comm.rank, payload=payload
            ),
            dest,
            tag=self._tag,
        )

    # -- receiving ----------------------------------------------------------
    def recv(self, source: int, timeout: Optional[float] = None) -> RpcMessage:
        """Next envelope from ``source`` (context-default timeout if None)."""
        if timeout is None:
            msg = self._comm.recv(source, tag=self._tag)
        else:
            msg = self._comm.recv_within(source, tag=self._tag, timeout=timeout)
        return self._checked(msg)

    def recv_any(
        self, sources: Sequence[int], timeout: Optional[float] = None
    ) -> tuple[int, RpcMessage]:
        """Next envelope from any of ``sources`` — ``(source, message)``.

        Sleeps until one arrives (``Communicator.recv_any``'s event
        wait, passed through: ``timeout=None`` is the run's deadlock
        window, ``timeout=0`` a non-blocking probe); a channel may list
        its own rank to receive envelopes it posted to itself.
        """
        src, msg = self._comm.recv_any(list(sources), tag=self._tag, timeout=timeout)
        return src, self._checked(msg)

    def call(
        self, dest: int, kind: str, payload: Any = None, timeout: Optional[float] = None
    ) -> Any:
        """Synchronous RPC: post, wait for the reply to that ``seq``.

        Assumes the peer answers requests in order on this channel (the
        mailbox fabric preserves per-pair ordering), which every server
        loop in this codebase does.
        """
        seq = self.post(dest, kind, payload)
        msg = self.recv(dest, timeout=timeout)
        if not msg.is_reply_to(seq):
            raise RuntimeError(
                f"rpc reply out of order: expected seq {seq}, got {msg.seq} "
                f"({msg.kind!r} from rank {msg.sender})"
            )
        return msg.payload

    @staticmethod
    def _checked(msg: Any) -> RpcMessage:
        if not isinstance(msg, RpcMessage):
            raise TypeError(
                f"non-RPC payload on the RPC tag: {type(msg).__name__}"
            )
        return msg
