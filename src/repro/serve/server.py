"""The serving plane: front-end, replica workers, and hot-swap.

Topology (over the :mod:`repro.mpi` SPMD runtime): rank 0 is the
**front-end** — it admits requests into the
:class:`~repro.serve.DynamicBatcher`, dispatches assembled batches to
the least-loaded replica over the :class:`repro.ps.RpcChannel` RPC
plane, collects results, and scatters them back to per-request
futures. Ranks 1..replicas are **inference workers**: each builds its
*own* model instance (layer forward caches are not shareable across
threads) and answers ``batch`` RPCs with predictions.

**Model-version hot-swap** follows the drain/swap/resume protocol:
the front-end stops dispatching, waits for every in-flight batch to
complete (bounded by ``drain_timeout_s``), ships the new weights to
every replica, and resumes once all acks arrive. A replica installs a
version by staging the named weights into a full parameter slab and
committing with one vectorized copy into its
:class:`~repro.nn.arena.ParameterArena` — the swap is a single
assignment, never a half-updated model. Every batch is tagged with the
version it was computed under, so in-flight work completed during the
drain is attributable (and verifiable bit-for-bit) to the old version.

**The front-end never polls.** Between events it sleeps in one
``recv_any`` on rank 0's message arrivals, and three things end that
sleep: a replica's result; a zero-payload ``wake`` envelope rank 0
addresses to itself when an ``offer`` (or the batcher closing) moves
the next forced flush earlier; or the timeout it asked for, which is
what is left of the oldest queued request's assembly budget. On each
wake it drains every result that is ready and dispatches until every
replica holds ``worker_depth`` batches.

The wall-clock accounting rides on :mod:`repro.telemetry`: the run is
a ``serve.run`` span, request/batch/swap totals are counters, and the
per-request latency distribution reduces to an
:class:`~repro.serve.SloReport`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.mpi import run_spmd
from repro.mpi.communicator import AbortError, DeadlockError
from repro.ps.rpc import RpcChannel
from repro.serve.batcher import Batch, DynamicBatcher, Request
from repro.serve.loadgen import ClosedWorkload, OpenWorkload
from repro.serve.options import DEFAULT_SERVE_OPTIONS, ServeOptions
from repro.serve.slo import SloReport, SloTracker
from repro.telemetry import runtime as telemetry

__all__ = ["serve_workload", "ServeReport", "SwapPlan", "request_features"]


@dataclass(frozen=True)
class SwapPlan:
    """One scheduled hot-swap: new weights, its label, and its trigger.

    The swap initiates once ``after_requests`` requests have completed.
    ``weights`` maps parameter name to array — typically read from a
    :class:`repro.resilience.CheckpointManager`-resolved checkpoint via
    :func:`repro.nn.serialization.load_weights_dict`.
    """

    version: str
    weights: Dict[str, np.ndarray]
    after_requests: int

    def __post_init__(self):
        if self.after_requests < 0:
            raise ValueError(
                f"after_requests must be non-negative, got {self.after_requests}"
            )
        if not self.weights:
            raise ValueError("swap weights must be non-empty")


@dataclass
class ServeReport:
    """Outcome of one serving run."""

    options: ServeOptions
    slo: SloReport
    #: version labels in the order they were made live
    versions: List[str] = field(default_factory=list)
    swaps: int = 0
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

    Arena-backed models stage every array into one contiguous slab and
    commit with a single vectorized slab copy — the live views never
    see a partially-applied version. Non-arena models fall back to
    per-parameter in-place copies (still in-place: optimizer state and
    any aliased views stay linked).
    """
    params = model.named_parameters()
    if set(weights) != set(params):
        missing = sorted(set(params) - set(weights))
        extra = sorted(set(weights) - set(params))
        raise ValueError(f"weight set mismatch: missing {missing}, unexpected {extra}")
    arena = getattr(model, "_arena", None)
    if arena is not None:
        staged = np.empty_like(arena.params_flat)
        for name, slab_slice, shape in arena.entries():
            value = np.asarray(weights[name], dtype=arena.params_flat.dtype)
            if value.shape != shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: {value.shape} vs {shape}"
                )
            staged[slab_slice] = value.reshape(-1)
        arena.params_flat[:] = staged
        return
    for name, param in params.items():
        value = np.asarray(weights[name], dtype=param.dtype)
        if value.shape != param.shape:
            raise ValueError(
                f"shape mismatch for {name!r}: {value.shape} vs {param.shape}"
            )
        np.copyto(param, value)


# -- replica ----------------------------------------------------------------
def _replica(comm, build_model, initial_weights, initial_version) -> dict:
    model = build_model()
    if initial_weights is not None:
        install_weights(model, initial_weights)
    rpc = RpcChannel(comm)
    # readiness handshake: the front-end must not start the clock on
    # arrivals while replicas are still building models — that would
    # charge cold-start seconds to the first requests' latency
    rpc.post(0, "ready")
    version = initial_version
    batches = 0
    rows = 0
    swaps = 0
    while True:
        msg = rpc.recv(0)
        if msg.kind == "stop":
            rpc.reply(0, msg, "stats", {
                "batches": batches, "rows": rows, "swaps": swaps,
            })
            return {"batches": batches, "rows": rows, "swaps": swaps}
        if msg.kind == "swap":
            payload = msg.payload
            install_weights(model, payload["weights"])
            version = payload["version"]
            swaps += 1
            telemetry.counter("serve.replica.swaps", rank=comm.rank)
            rpc.reply(0, msg, "swapped", {"version": version})
            continue
        if msg.kind == "batch":
            feats = msg.payload["features"]
            # predict, not _forward: the reply is handed off by reference,
            # and _forward's result is a work buffer the next batch reuses
            y = model.predict(feats, batch_size=len(feats))
            batches += 1
            rows += len(feats)
            rpc.reply(0, msg, "result", {
                "batch_seq": msg.seq,
                "version": version,
                "predictions": y,
            })
            continue
        raise RuntimeError(f"replica {comm.rank}: unknown rpc kind {msg.kind!r}")


# -- front-end --------------------------------------------------------------
class _Frontend:
    """Rank-0 state machine: admit, batch, dispatch, collect, swap."""

    def __init__(self, comm, workload, pool, options, swaps, keep_responses):
        self.comm = comm
        self.rpc = RpcChannel(comm)
        self.workload = workload
        self.pool = pool
        self.options = options
        self.batcher = DynamicBatcher(options, wake=self._wake)
        self.tracker = SloTracker(options.deadline_ms)
        self.replica_ranks = list(range(1, comm.size))
        #: everything that can end the event loop's sleep: rank 0's own
        #: wake envelopes, then the replicas' results
        self.event_sources = [0] + self.replica_ranks
        self.inflight: Dict[int, Dict[int, Batch]] = {
            r: {} for r in self.replica_ranks
        }
        self.pending_swaps = sorted(swaps, key=lambda s: s.after_requests)
        self.versions: List[str] = []
        self.swap_drain_started: Optional[float] = None
        self.completed = 0
        self.batches = 0
        self.batch_rows = 0
        self.per_replica_batches = {r: 0 for r in self.replica_ranks}
        self.batch_log: List[tuple] = []
        self.responses: Optional[Dict[int, tuple]] = {} if keep_responses else None
        self.submitters_done = threading.Event()
        self.swaps_done = 0

    # -- submission side (runs on workload threads) -------------------------
    def _wake(self) -> None:
        """End the event loop's sleep: the batcher has news for it."""
        try:
            self.rpc.post(0, "wake")
        except AbortError:
            pass  # the run is being torn down; nobody is left to wake

    def _submit(self, req_id: int) -> Request:
        rows = self.workload.rows_per_request
        now = time.monotonic()
        request = Request(
            req_id=req_id,
            features=request_features(self.pool, req_id, rows),
            arrival_s=now,
            deadline_s=now + self.options.deadline_s,
        )
        outcome, displaced = self.batcher.offer(request)
        if outcome == "rejected":
            self.tracker.record_rejected()
            request.future.set((None, None))
        for victim in displaced:
            self.tracker.record_shed()
            victim.future.set((None, None))
        return request

    def _run_open(self) -> None:
        start = time.monotonic()
        for i, offset in enumerate(self.workload.arrivals):
            delay = start + float(offset) - time.monotonic()
            if delay > 0:
                # a schedule, not a poll: the open loop owes request i at
                # its arrival offset whatever the server is doing
                time.sleep(delay)
            self._submit(i)

    def _run_closed_client(self, client: int) -> None:
        per = self.workload.requests_per_client
        for j in range(per):
            request = self._submit(client * per + j)
            request.future.wait(timeout=self.comm._context.timeout)
            if self.workload.think_time_s > 0:
                # a schedule, not a poll: the modelled client thinks
                # this long between its answer and its next request
                time.sleep(self.workload.think_time_s)

    def start_submitters(self) -> List[threading.Thread]:
        if isinstance(self.workload, OpenWorkload):
            targets = [self._run_open]
        else:
            targets = [
                (lambda c=c: self._run_closed_client(c))
                for c in range(self.workload.clients)
            ]
        threads = [
            threading.Thread(target=t, name=f"serve-client-{i}", daemon=True)
            for i, t in enumerate(targets)
        ]
        for t in threads:
            t.start()

        def joiner():
            for t in threads:
                t.join()
            self.submitters_done.set()
            self.batcher.close()

        threading.Thread(target=joiner, name="serve-joiner", daemon=True).start()
        return threads

    # -- event loop ---------------------------------------------------------
    @property
    def current_version(self) -> str:
        return self.versions[-1]

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
        payload = msg.payload
        now = time.monotonic()
        for request, row_slice in batch.slices():
            prediction = payload["predictions"][row_slice]
            self.tracker.record(now - request.arrival_s, rows=request.rows)
            if self.responses is not None:
                self.responses[request.req_id] = (
                    payload["version"],
                    np.array(prediction, copy=True),
                )
            request.future.set((payload["version"], prediction))
            self.completed += 1
        telemetry.counter("serve.batches")

    def _open_replica(self) -> Optional[int]:
        """The least-loaded replica below ``worker_depth``, if any."""
        target = min(self.replica_ranks, key=lambda r: len(self.inflight[r]))
        if len(self.inflight[target]) < self.options.worker_depth:
            return target
        return None

    def _dispatch(self) -> None:
        """Send flush-worthy batches until every replica is at depth."""
        while self.swap_drain_started is None:  # a draining swap sends nothing
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
                (self.current_version, tuple(r.req_id for r in batch.requests))
            )

    def _sleep_budget(self) -> Optional[float]:
        """Longest the loop may sleep with no event; None for "until one"."""
        if self.swap_drain_started is not None:
            # only results matter now; look again when the drain is overdue
            overdue = self.swap_drain_started + self.options.drain_timeout_s
            return max(0.0, overdue - time.monotonic())
        if self._open_replica() is None:
            return None  # a full batch cannot go anywhere before a result
        return self.batcher.seconds_until_flush()

    def _maybe_swap(self) -> None:
        if not self.pending_swaps:
            return
        plan = self.pending_swaps[0]
        due = self.completed >= plan.after_requests or (
            # end of workload: a not-yet-triggered swap still executes,
            # so a run never exits with versions silently unshipped
            self.submitters_done.is_set()
            and len(self.batcher) == 0
        )
        if not due:
            return
        if self.swap_drain_started is None:
            self.swap_drain_started = time.monotonic()
        if self._inflight_total() > 0:
            if (
                time.monotonic() - self.swap_drain_started
                > self.options.drain_timeout_s
            ):
                raise RuntimeError(
                    f"hot-swap drain exceeded {self.options.drain_timeout_s}s "
                    f"with {self._inflight_total()} batches in flight"
                )
            return  # keep collecting; dispatch is already paused
        # drained: ship the new version and wait for every ack
        with telemetry.span(
            "serve.swap", category="serve", version=plan.version
        ):
            for r in self.replica_ranks:
                self.rpc.post(
                    r, "swap", {"version": plan.version, "weights": plan.weights}
                )
            acked = 0
            while acked < len(self.replica_ranks):
                _, msg = self.rpc.recv_any(self.replica_ranks)
                if msg.kind != "swapped":
                    raise RuntimeError(
                        f"expected swap ack, got {msg.kind!r}"
                    )
                acked += 1
        self.versions.append(plan.version)
        self.pending_swaps.pop(0)
        self.swap_drain_started = None
        self.swaps_done += 1
        telemetry.counter("serve.swaps")

    def run(self, initial_version: str) -> ServeReport:
        self.versions.append(initial_version)
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
            self.start_submitters()
            while True:
                self._maybe_swap()
                self._dispatch()
                if (
                    self.submitters_done.is_set()
                    and len(self.batcher) == 0
                    and self._inflight_total() == 0
                    and not self.pending_swaps
                ):
                    break
                self._collect(self._sleep_budget())
            wall = time.monotonic() - start
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
                    swaps=self.swaps_done,
                )
        telemetry.counter("serve.requests", slo.requests)
        return ServeReport(
            options=self.options,
            slo=slo,
            versions=self.versions,
            swaps=self.swaps_done,
            batches=self.batches,
            mean_batch_rows=(self.batch_rows / self.batches) if self.batches else 0.0,
            per_replica_batches=dict(self.per_replica_batches),
            responses=self.responses,
            batch_log=self.batch_log,
        )


def serve_workload(
    build_model: Callable[[], object],
    workload,
    feature_pool: np.ndarray,
    options: Optional[ServeOptions] = None,
    *,
    initial_weights: Optional[Dict[str, np.ndarray]] = None,
    initial_version: str = "v0",
    swaps: Sequence[SwapPlan] = (),
    keep_responses: bool = False,
) -> ServeReport:
    """Serve one workload over ``replicas`` inference workers.

    ``build_model`` is called once *per replica* (each SPMD rank thread
    needs a private model instance — layer forward caches are not
    shareable) and must return a built :class:`repro.nn.Sequential`.
    ``initial_weights`` (e.g. a trained model's
    ``named_parameters()``, or a checkpoint read via
    :func:`repro.nn.serialization.load_weights_dict`) is installed on
    every replica before serving begins, so replicas answer with one
    consistent version regardless of their build seeds. ``workload`` is
    an :class:`~repro.serve.OpenWorkload` or
    :class:`~repro.serve.ClosedWorkload`; requests draw feature rows
    from ``feature_pool`` via :func:`request_features`.

    ``swaps`` schedules hot-swaps; ``keep_responses=True`` retains
    every prediction (tagged with its serving version) plus the batch
    dispatch log, which is what lets a verifier replay each served
    batch offline and assert bitwise identity across a swap.

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
                comm, workload, feature_pool, opts, list(swaps), keep_responses
            )
            return frontend.run(initial_version)
        return _replica(comm, build_model, initial_weights, initial_version)

    results = run_spmd(opts.replicas + 1, node)
    return results[0]
