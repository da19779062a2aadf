"""Double-buffered epoch prefetch: hide data preparation behind compute.

The serial training loop alternates *prepare epoch N* → *train epoch N*
— every second of per-epoch data work (re-reading the mmap cache,
gathering the epoch's shuffled row order, materializing the float
matrix) sits exposed on the critical path. :class:`EpochPrefetcher`
moves that work onto a background daemon thread feeding a bounded
hand-off queue: while the trainer computes epoch *N*, the loader is
already preparing epoch *N+1*, so in steady state only the *first*
epoch's load is exposed (the analogue, one level up the stack, of the
wait-free backprop overlap in :mod:`repro.overlap`).

Shuffling stays bit-reproducible across ranks and runs: the epoch order
comes from :func:`epoch_shard_order`, a pure function of
``(n_rows, shard_rows, seed, epoch)`` that permutes contiguous row
*shards* with ``np.random.default_rng((seed, epoch))``. The same seed
gives the same epoch order on every rank and on every execution — the
background thread's timing never influences the data the model sees,
which is what makes the prefetched fit bit-identical to the synchronous
comparator.

Telemetry mirrors the overlap scheduler's split: each consumed epoch
lands a ``prefetch_hidden`` span (load time that ran concurrently with
the previous epoch's compute) and a ``prefetch_wait`` span (the exposed
remainder the trainer blocked on), the pair the simulator prices with
:func:`repro.sim.iomodel.exposed_load_seconds`.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.telemetry import runtime as telemetry

__all__ = [
    "EpochPrefetcher",
    "PrefetchStats",
    "epoch_shard_order",
    "shard_shuffled_view",
    "DEFAULT_SHARD_ROWS",
]

#: rows per shuffle shard — coarse enough that gathering an epoch is a
#: handful of contiguous block copies, fine enough that the order is a
#: real shuffle at CANDLE sample counts (NT3: 1120 train rows)
DEFAULT_SHARD_ROWS = 16


def epoch_shard_order(
    n_rows: int, shard_rows: int, seed: int, epoch: int
) -> np.ndarray:
    """The epoch's row order: a seeded permutation of contiguous shards.

    Rows are grouped into ``ceil(n_rows / shard_rows)`` contiguous
    shards (the last may be short); the shards are permuted by
    ``np.random.default_rng((seed, epoch))`` and their row ranges
    concatenated. Pure — no global state, no rank identity, no clock —
    so every rank that agrees on ``(seed, epoch)`` derives the same
    order, and re-running a job replays the exact shuffle sequence.
    """
    if n_rows < 0:
        raise ValueError(f"n_rows must be non-negative, got {n_rows}")
    if shard_rows <= 0:
        raise ValueError(f"shard_rows must be positive, got {shard_rows}")
    if epoch < 0:
        raise ValueError(f"epoch must be non-negative, got {epoch}")
    if n_rows == 0:
        return np.empty(0, dtype=np.int64)
    n_shards = -(-n_rows // shard_rows)
    rng = np.random.default_rng((seed, epoch))
    order = np.empty(n_rows, dtype=np.int64)
    pos = 0
    for shard in rng.permutation(n_shards):
        start = int(shard) * shard_rows
        stop = min(start + shard_rows, n_rows)
        order[pos : pos + stop - start] = np.arange(start, stop, dtype=np.int64)
        pos += stop - start
    return order


def shard_shuffled_view(
    x, y, seed: int, epoch: int, shard_rows: int = DEFAULT_SHARD_ROWS
):
    """``(x, y)`` gathered into the epoch's shard-shuffled row order."""
    order = epoch_shard_order(len(x), shard_rows, seed, epoch)
    return x[order], y[order]


@dataclass
class PrefetchStats:
    """Accumulated prefetch telemetry across the epochs of one run."""

    epochs: int = 0  #: epochs consumed
    load_s: float = 0.0  #: total background load wall time
    hidden_s: float = 0.0  #: load time concurrent with trainer compute
    wait_s: float = 0.0  #: load time the consumer blocked on (exposed)

    @property
    def hidden_fraction(self) -> float:
        """Share of load time hidden behind compute (0 when idle)."""
        return self.hidden_s / self.load_s if self.load_s > 0 else 0.0

    def as_dict(self) -> dict:
        return {
            "epochs": self.epochs,
            "load_s": self.load_s,
            "hidden_s": self.hidden_s,
            "wait_s": self.wait_s,
            "hidden_fraction": self.hidden_fraction,
        }


class EpochPrefetcher:
    """Background epoch loader with a bounded hand-off queue.

    ``loader(epoch) -> payload`` runs on a daemon thread, one call per
    epoch in order, its results queued at most ``depth`` deep (classic
    double buffering at the default ``depth=2``). The consumer pulls
    with :meth:`next_epoch`; a loader exception is re-raised there, and
    :meth:`close` — safe to call from a ``finally`` around a trainer
    that died mid-epoch — cancels the thread promptly even when the
    queue is full, so no daemon thread outlives the fit that started it.

    ``synchronous=True`` disables the thread entirely and runs the
    loader inline at each :meth:`next_epoch` — the reference timeline
    (all load time exposed) the benchmarks compare against; data is
    identical either way because the loader is a pure function of the
    epoch index.
    """

    def __init__(
        self,
        loader: Callable[[int], object],
        epochs: int,
        depth: int = 2,
        synchronous: bool = False,
        name: str = "prefetch",
    ):
        if epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {epochs}")
        if not 1 <= depth <= 64:
            raise ValueError(f"depth must be in [1, 64], got {depth}")
        self._loader = loader
        self.epochs = int(epochs)
        self.depth = int(depth)
        self.synchronous = bool(synchronous)
        self.name = name
        self.stats = PrefetchStats()
        self._consumed = 0
        self._closed = False
        self._cancel = threading.Event()
        self._queue: queue.Queue = queue.Queue(maxsize=self.depth)
        self._thread: Optional[threading.Thread] = None
        if not self.synchronous and self.epochs > 0:
            self._thread = threading.Thread(
                target=self._produce, name=f"{name}-loader", daemon=True
            )
            self._thread.start()

    # -- producer (daemon thread) ------------------------------------------
    def _produce(self) -> None:
        try:
            for epoch in range(self.epochs):
                if self._cancel.is_set():
                    return
                t0 = time.perf_counter()
                payload = self._loader(epoch)
                load_s = time.perf_counter() - t0
                if not self._offer(("epoch", epoch, payload, load_s, t0)):
                    return
        except BaseException as exc:  # delivered to the consumer
            self._offer(("error", exc))

    def _offer(self, item) -> bool:
        """Bounded put, blocking while the queue is full; False once
        cancelled. :meth:`close` sets the cancel flag and then drains the
        queue, which wakes a put blocked on a full one."""
        if self._cancel.is_set():
            return False
        self._queue.put(item)
        return not self._cancel.is_set()

    # -- consumer -----------------------------------------------------------
    def __len__(self) -> int:
        return self.epochs

    @property
    def epochs_remaining(self) -> int:
        return self.epochs - self._consumed

    def __iter__(self):
        while self.epochs_remaining > 0:
            yield self.next_epoch()

    def next_epoch(self):
        """The next epoch's payload, blocking until the loader delivers.

        Accounting: ``wait`` is the time this call blocked; the epoch's
        ``load_s - wait`` ran concurrently with whatever the caller was
        doing since the previous call — that difference is the *hidden*
        load time the prefetch bought.
        """
        if self._closed:
            raise RuntimeError("prefetcher is closed")
        if self.epochs_remaining <= 0:
            raise RuntimeError(f"all {self.epochs} epochs already consumed")
        if self.synchronous:
            t0 = time.perf_counter()
            payload = self._loader(self._consumed)
            load_s = time.perf_counter() - t0
            self._consumed += 1
            self._account(load_s, wait=load_s, t0=t0)
            return payload
        t_wait0 = time.perf_counter()
        item = self._queue.get()
        wait = time.perf_counter() - t_wait0
        if item[0] == "error":
            self.close()
            raise item[1]
        _, epoch, payload, load_s, t0 = item
        self._consumed += 1
        self._account(load_s, wait=min(wait, load_s), t0=t0, epoch=epoch)
        return payload

    def _account(
        self, load_s: float, wait: float, t0: float, epoch: Optional[int] = None
    ) -> None:
        hidden = max(0.0, load_s - wait)
        self.stats.epochs += 1
        self.stats.load_s += load_s
        self.stats.hidden_s += hidden
        self.stats.wait_s += wait
        tracer = telemetry.active_tracer()
        if tracer is not None:
            attrs = {"epoch": self._consumed - 1 if epoch is None else epoch}
            tracer.record_span(
                "prefetch_hidden", t0, hidden,
                category="prefetch", absolute=True, **attrs,
            )
            tracer.record_span(
                "prefetch_wait", t0 + hidden, wait,
                category="prefetch", absolute=True, **attrs,
            )

    def close(self) -> None:
        """Cancel the loader and reclaim the thread. Idempotent.

        Called by trainers from a ``finally`` — also on mid-epoch
        exceptions — so a crashed fit never leaks a daemon thread or
        leaves the producer parked on a full queue.
        """
        if self._closed:
            return
        self._closed = True
        self._cancel.set()
        # drain: a producer blocked in put() wakes, finds the cancel set
        # and stops (it puts at most one more item)
        while True:
            try:
                self._queue.get_nowait()
            except queue.Empty:
                break
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __repr__(self):
        mode = "sync" if self.synchronous else f"depth={self.depth}"
        return (
            f"<EpochPrefetcher {self.name} {self._consumed}/{self.epochs}"
            f" epochs, {mode}>"
        )

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        x,
        y,
        epochs: int,
        seed: int = 0,
        shard_rows: int = DEFAULT_SHARD_ROWS,
        depth: int = 2,
        synchronous: bool = False,
    ) -> "EpochPrefetcher":
        """Prefetch shard-shuffled ``(x, y)`` views of in-memory arrays."""
        if len(x) != len(y):
            raise ValueError(
                f"x and y disagree on length: {len(x)} vs {len(y)}"
            )

        def load(epoch: int):
            return shard_shuffled_view(x, y, seed, epoch, shard_rows)

        return cls(load, epochs, depth=depth, synchronous=synchronous)

    @classmethod
    def from_config(
        cls,
        x,
        y,
        epochs: int,
        config,
        shard_rows: int = DEFAULT_SHARD_ROWS,
        synchronous: bool = False,
    ) -> "EpochPrefetcher":
        """Prefetcher wired from a :class:`~repro.ingest.LoaderConfig`
        (``prefetch_depth`` and ``shuffle_seed`` knobs)."""
        seed = config.shuffle_seed if config.shuffle_seed is not None else 0
        return cls.from_arrays(
            x, y, epochs,
            seed=seed,
            shard_rows=shard_rows,
            depth=config.prefetch_depth,
            synchronous=synchronous,
        )
