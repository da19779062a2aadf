"""The serving plane: front-end and replica workers.

Topology (over the :mod:`repro.mpi` SPMD runtime): rank 0 is the
**front-end** — it admits requests into the
:class:`~repro.serve.DynamicBatcher`, dispatches assembled batches to
the least-loaded replica over the :class:`repro.ps.RpcChannel` RPC
plane, collects results, and records each request's latency. Ranks
1..replicas are **inference workers**: each builds its *own* model
instance (layer forward caches are not shareable across threads),
installs the served weights, and answers ``batch`` RPCs with
predictions. Every batch is logged with the version label it was
computed under, so a verifier can replay it bit for bit.

**The front-end never polls.** Between events it sleeps in one
``recv_any`` on rank 0's message arrivals, and three things end that
sleep: a replica's result; a zero-payload ``wake`` envelope rank 0
addresses to itself when an ``offer`` (or the batcher closing) moves
the next forced flush earlier; or the timeout it asked for, which is
what is left of the oldest queued request's assembly budget. On each
wake it drains every result that is ready and dispatches until every
replica holds :data:`WORKER_DEPTH` batches.

The open-loop load generator runs as a job on its own
:class:`~repro.worker.Worker` and closes the batcher when its schedule
is done.

The wall-clock accounting rides on :mod:`repro.telemetry`: the run is
a ``serve.run`` span, request/batch totals are counters, and the
per-request latency distribution reduces to an
:class:`~repro.serve.SloReport`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.mpi import run_spmd
from repro.mpi.communicator import AbortError, DeadlockError
from repro.ps.rpc import RpcChannel
from repro.serve.batcher import Batch, DynamicBatcher, Request
from repro.serve.loadgen import OpenWorkload
from repro.serve.options import DEFAULT_SERVE_OPTIONS, ServeOptions
from repro.serve.slo import SloReport, SloTracker
from repro.telemetry import runtime as telemetry
from repro.worker import Worker

__all__ = ["serve_workload", "ServeReport", "request_features"]

#: in-flight batches each replica may hold before the dispatcher stops
#: feeding it (2 = classic double buffering: one computing, one queued)
WORKER_DEPTH = 2

#: the label every batch and response of a run is logged under: a run
#: serves one model version
VERSION = "v0"


@dataclass
class ServeReport:
    """Outcome of one serving run."""

    options: ServeOptions
    slo: SloReport
    batches: int = 0
    mean_batch_rows: float = 0.0
    #: replica rank → batches it computed
    per_replica_batches: Dict[int, int] = field(default_factory=dict)
    #: req_id → (version, prediction rows); only with ``keep_responses``
    responses: Optional[Dict[int, tuple]] = None
    #: dispatch log: (version, tuple of req_ids) per batch, in dispatch
    #: order — enough to replay every batch bit-for-bit offline
    batch_log: List[tuple] = field(default_factory=list)


def request_features(pool: np.ndarray, index: int, rows: int) -> np.ndarray:
    """The feature rows of request ``index`` — deterministic by design.

    Request ``index`` reads ``rows`` consecutive rows of ``pool``
    starting at ``(index * rows) % len(pool)`` (wrapping). Both the
    workload submitters and any offline verifier use this function, so
    a served response can be replayed exactly.
    """
    if rows > len(pool):
        raise ValueError(f"request rows {rows} exceed pool size {len(pool)}")
    start = (index * rows) % len(pool)
    stop = start + rows
    if stop <= len(pool):
        return pool[start:stop]
    return np.concatenate([pool[start:], pool[: stop - len(pool)]], axis=0)


def install_weights(model, weights: Dict[str, np.ndarray]) -> None:
    """Commit a named-weights dict into a built model atomically.

    Every array is staged into one contiguous slab, committed into the
    model's :class:`~repro.nn.arena.ParameterArena` with a single
    vectorized slab copy — the live views never see a partially-applied
    version.
    """
    params = model.named_parameters()
    if set(weights) != set(params):
        missing = sorted(set(params) - set(weights))
        extra = sorted(set(weights) - set(params))
        raise ValueError(f"weight set mismatch: missing {missing}, unexpected {extra}")
    arena = model.arena
    staged = np.empty_like(arena.params_flat)
    for name, slab_slice, shape in arena.entries():
        value = np.asarray(weights[name], dtype=arena.params_flat.dtype)
        if value.shape != shape:
            raise ValueError(f"shape mismatch for {name!r}: {value.shape} vs {shape}")
        staged[slab_slice] = value.reshape(-1)
    arena.params_flat[:] = staged


# -- replica ----------------------------------------------------------------
def _replica(comm, build_model, initial_weights) -> dict:
    model = build_model()
    if initial_weights is not None:
        install_weights(model, initial_weights)
    rpc = RpcChannel(comm)
    # readiness handshake: the front-end must not start the clock on
    # arrivals while replicas are still building models — that would
    # charge cold-start seconds to the first requests' latency
    rpc.post(0, "ready")
    batches = 0
    rows = 0
    while True:
        msg = rpc.recv(0)
        if msg.kind == "stop":
            rpc.reply(0, msg, "stats", {"batches": batches, "rows": rows})
            return {"batches": batches, "rows": rows}
        if msg.kind == "batch":
            feats = msg.payload["features"]
            # predict, not _forward: the reply is handed off by reference,
            # and _forward's result is a work buffer the next batch reuses
            y = model.predict(feats, batch_size=len(feats))
            batches += 1
            rows += len(feats)
            rpc.reply(0, msg, "result", {"predictions": y})
            continue
        raise RuntimeError(f"replica {comm.rank}: unknown rpc kind {msg.kind!r}")


# -- front-end --------------------------------------------------------------
class _Frontend:
    """Rank-0 state machine: admit, batch, dispatch, collect."""

    def __init__(self, comm, workload, pool, options, keep_responses):
        self.rpc = RpcChannel(comm)
        self.workload = workload
        self.pool = pool
        self.options = options
        #: the label every batch and response is logged under
        self.version = VERSION
        self.batcher = DynamicBatcher(options, wake=self._wake)
        self.tracker = SloTracker(options.deadline_ms)
        self.replica_ranks = list(range(1, comm.size))
        #: everything that can end the event loop's sleep: rank 0's own
        #: wake envelopes, then the replicas' results
        self.event_sources = [0] + self.replica_ranks
        self.inflight: Dict[int, Dict[int, Batch]] = {
            r: {} for r in self.replica_ranks
        }
        self.batches = 0
        self.batch_rows = 0
        self.per_replica_batches = {r: 0 for r in self.replica_ranks}
        self.batch_log: List[tuple] = []
        self.responses: Optional[Dict[int, tuple]] = {} if keep_responses else None
        self.arrivals_done = threading.Event()
        self._generator = Worker("serve-client-0")
        #: a failed run: the generator stops at its next request
        self._stopping = False

    # -- submission side (runs on the generator's thread) -------------------
    def _wake(self) -> None:
        """End the event loop's sleep: the batcher has news for it."""
        try:
            self.rpc.post(0, "wake")
        except AbortError:
            pass  # the run is being torn down; nobody is left to wake

    def _submit(self, req_id: int) -> None:
        rows = self.workload.rows_per_request
        now = time.monotonic()
        request = Request(
            req_id=req_id,
            features=request_features(self.pool, req_id, rows),
            arrival_s=now,
            deadline_s=now + self.options.deadline_s,
        )
        if self.batcher.offer(request) == "rejected":
            self.tracker.record_rejected()

    def _run_open(self) -> None:
        """The generator's job; closes the batcher when arrivals end."""
        try:
            start = time.monotonic()
            for i, offset in enumerate(self.workload.arrivals):
                if self._stopping:
                    return
                delay = start + float(offset) - time.monotonic()
                if delay > 0:
                    # a schedule, not a poll: the open loop owes request i
                    # at its arrival offset whatever the server is doing
                    time.sleep(delay)
                self._submit(i)
        finally:
            self.arrivals_done.set()
            self.batcher.close()

    def stop_generator(self, failed: bool) -> None:
        """Join the load generator; a failed run first tells it to stop
        and closes the batcher, so a blocked ``offer`` returns."""
        if failed:
            self._stopping = True
            self.batcher.close()
        self._generator.close()

    # -- event loop ---------------------------------------------------------
    def _inflight_total(self) -> int:
        return sum(len(v) for v in self.inflight.values())

    def _collect(self, timeout: Optional[float]) -> None:
        """Sleep until an event or ``timeout``, then drain what is ready.

        ``timeout=None`` sleeps until the next event (bounded by the
        run's deadlock window, after which the loop just looks again).
        """
        while True:
            try:
                src, msg = self.rpc.recv_any(self.event_sources, timeout=timeout)
            except DeadlockError:
                return
            timeout = 0.0  # awake now: take whatever else has arrived
            if src != 0:
                self._complete(src, msg)

    def _complete(self, src: int, msg) -> None:
        if msg.kind != "result":
            raise RuntimeError(f"front-end: unexpected rpc kind {msg.kind!r}")
        batch = self.inflight[src].pop(msg.seq)
        predictions = msg.payload["predictions"]
        now = time.monotonic()
        for request, row_slice in batch.slices():
            self.tracker.record(now - request.arrival_s, rows=request.rows)
            if self.responses is not None:
                self.responses[request.req_id] = (
                    self.version,
                    np.array(predictions[row_slice], copy=True),
                )
        telemetry.counter("serve.batches")

    def _open_replica(self) -> Optional[int]:
        """The least-loaded replica below :data:`WORKER_DEPTH`, if any."""
        target = min(self.replica_ranks, key=lambda r: len(self.inflight[r]))
        if len(self.inflight[target]) < WORKER_DEPTH:
            return target
        return None

    def _dispatch(self) -> None:
        """Send flush-worthy batches until every replica is at depth."""
        while True:
            target = self._open_replica()
            if target is None:
                return  # every replica at depth; a result will free a slot
            batch = self.batcher.poll()
            if batch is None:
                return
            seq = self.rpc.post(target, "batch", {"features": batch.features})
            self.inflight[target][seq] = batch
            self.batches += 1
            self.batch_rows += batch.rows
            self.per_replica_batches[target] += 1
            self.batch_log.append(
                (self.version, tuple(r.req_id for r in batch.requests))
            )

    def _sleep_budget(self) -> Optional[float]:
        """Longest the loop may sleep with no event; None for "until one"."""
        if self._open_replica() is None:
            return None  # a full batch cannot go anywhere before a result
        return self.batcher.seconds_until_flush()

    def run(self) -> ServeReport:
        with telemetry.span(
            "serve.run",
            category="serve",
            replicas=len(self.replica_ranks),
            max_batch=self.options.max_batch,
            deadline_ms=self.options.deadline_ms,
        ) as sp:
            for r in self.replica_ranks:
                msg = self.rpc.recv(r)
                if msg.kind != "ready":
                    raise RuntimeError(
                        f"replica {r}: expected ready, got {msg.kind!r}"
                    )
            start = time.monotonic()
            self._generator.submit(self._run_open)
            failed = True
            try:
                while True:
                    self._dispatch()
                    if (
                        self.arrivals_done.is_set()
                        and len(self.batcher) == 0
                        and self._inflight_total() == 0
                    ):
                        break
                    self._collect(self._sleep_budget())
                wall = time.monotonic() - start
                failed = False
            finally:
                self.stop_generator(failed)
            # retire the replicas and gather their stats
            for r in self.replica_ranks:
                self.rpc.post(r, "stop")
            for r in self.replica_ranks:
                self.rpc.recv(r)
            slo = self.tracker.report(wall)
            if sp is not None:
                sp.set_attrs(
                    requests=slo.requests,
                    p99_ms=slo.p99_ms,
                    throughput_rps=slo.throughput_rps,
                )
        telemetry.counter("serve.requests", slo.requests)
        return ServeReport(
            options=self.options,
            slo=slo,
            batches=self.batches,
            mean_batch_rows=(self.batch_rows / self.batches) if self.batches else 0.0,
            per_replica_batches=dict(self.per_replica_batches),
            responses=self.responses,
            batch_log=self.batch_log,
        )


def serve_workload(
    build_model: Callable[[], object],
    workload: OpenWorkload,
    feature_pool: np.ndarray,
    options: Optional[ServeOptions] = None,
    *,
    initial_weights: Optional[Dict[str, np.ndarray]] = None,
    keep_responses: bool = False,
) -> ServeReport:
    """Serve one open-loop workload over ``replicas`` inference workers.

    ``build_model`` is called once *per replica* (each SPMD rank thread
    needs a private model instance — layer forward caches are not
    shareable) and must return a built :class:`repro.nn.Sequential`.
    ``initial_weights`` (e.g. a trained model's ``named_parameters()``,
    or a checkpoint read via
    :func:`repro.nn.serialization.load_weights_dict`) is installed on
    every replica before serving begins, so replicas answer with one
    consistent version regardless of their build seeds. ``workload`` is
    an :class:`~repro.serve.OpenWorkload`; requests draw feature rows
    from ``feature_pool`` via :func:`request_features`.

    ``keep_responses=True`` retains every prediction (tagged with
    :data:`VERSION`) beside the batch dispatch log, which is what
    lets a verifier replay each served batch offline and assert bitwise
    identity.

    Returns the front-end's :class:`ServeReport`.
    """
    opts = options if options is not None else DEFAULT_SERVE_OPTIONS
    if feature_pool.ndim < 2:
        raise ValueError(
            f"feature_pool must be at least 2-D (rows, features...), "
            f"got shape {feature_pool.shape}"
        )

    def node(comm):
        if comm.rank == 0:
            frontend = _Frontend(
                comm, workload, feature_pool, opts, keep_responses
            )
            return frontend.run()
        return _replica(comm, build_model, initial_weights)

    results = run_spmd(opts.replicas + 1, node)
    return results[0]
