"""Double-buffered epoch prefetch: hide data preparation behind compute.

The serial training loop alternates *prepare epoch N* → *train epoch N*
— every second of per-epoch data work (re-reading the mmap cache,
gathering the epoch's shuffled row order, materializing the float
matrix) sits exposed on the critical path. :class:`EpochPrefetcher`
moves that work onto a :class:`~repro.worker.Worker`, at most
:data:`PREFETCH_DEPTH` epochs ahead: while the trainer computes epoch
*N*, the loader is already preparing epoch *N+1*, so in steady state
only the *first* epoch's load is exposed (the analogue, one level up
the stack, of the wait-free backprop overlap in :mod:`repro.overlap`).

Shuffling stays bit-reproducible across ranks and runs: the epoch order
comes from :func:`epoch_shard_order`, a pure function of
``(n_rows, shard_rows, seed, epoch)`` that permutes contiguous row
*shards* with ``np.random.default_rng((seed, epoch))``. The same seed
gives the same epoch order on every rank and on every execution — the
background thread's timing never influences the data the model sees,
which is what makes the prefetched fit bit-identical to the synchronous
comparator.

Telemetry is the overlap scheduler's split, by the same
:func:`repro.worker.split_hidden`: each consumed epoch lands a
``prefetch_hidden`` span (load time that ran concurrently with the
previous epoch's compute) and a ``prefetch_wait`` span (the exposed
remainder the trainer blocked on), the pair the simulator prices with
:func:`repro.sim.iomodel.exposed_load_seconds`.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.telemetry import runtime as telemetry
from repro.worker import Job, Worker, split_hidden

__all__ = [
    "EpochPrefetcher",
    "PrefetchStats",
    "epoch_shard_order",
    "shard_shuffled_view",
    "DEFAULT_SHARD_ROWS",
    "PREFETCH_DEPTH",
]

#: rows per shuffle shard — coarse enough that gathering an epoch is a
#: handful of contiguous block copies, fine enough that the order is a
#: real shuffle at CANDLE sample counts (NT3: 1120 train rows)
DEFAULT_SHARD_ROWS = 16

#: epochs loaded ahead of the trainer (double buffering: one loading
#: while the next waits)
PREFETCH_DEPTH = 2


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


class EpochPrefetcher:
    """Background epoch loader, :data:`PREFETCH_DEPTH` epochs ahead.

    ``loader(epoch) -> payload`` runs as one job per epoch, in order, on
    a :class:`~repro.worker.Worker`. The consumer pulls with
    :meth:`next_epoch`; a loader exception is re-raised there, and
    :meth:`close` — safe to call from a ``finally`` around a trainer
    that died mid-epoch — drops the epochs not yet started and joins the
    one loading, so no thread outlives the fit that started it.

    ``synchronous=True`` runs the loader inline at each
    :meth:`next_epoch`, with no worker — the reference timeline (all load
    time exposed) the benchmarks compare against; data is identical
    either way because the loader is a pure function of the epoch index.
    """

    def __init__(
        self,
        loader: Callable[[int], object],
        epochs: int,
        synchronous: bool = False,
    ):
        if epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {epochs}")
        self._loader = loader
        self.epochs = int(epochs)
        self.synchronous = bool(synchronous)
        self.stats = PrefetchStats()
        self._consumed = 0
        self._closed = False
        #: the submitted, not yet consumed epochs' jobs, oldest first
        self._jobs: deque = deque()
        self._worker = None if self.synchronous else Worker("prefetch-loader")
        self._submit()

    def _submit(self) -> None:
        """Keep :data:`PREFETCH_DEPTH` epochs submitted ahead of the trainer."""
        while (
            self._worker is not None
            and len(self._jobs) < PREFETCH_DEPTH
            and self._consumed + len(self._jobs) < self.epochs
        ):
            epoch = self._consumed + len(self._jobs)
            self._jobs.append(self._worker.submit(lambda epoch=epoch: self._loader(epoch)))

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

        Accounting: the part of the epoch's load that ran before this
        call ran concurrently with whatever the caller was doing since
        the previous call — the *hidden* load time the prefetch bought;
        the rest is the wait.
        """
        if self._closed:
            raise RuntimeError("prefetcher is closed")
        if self.epochs_remaining <= 0:
            raise RuntimeError(f"all {self.epochs} epochs already consumed")
        needed = time.perf_counter()
        if self.synchronous:
            job = Job(lambda: self._loader(self._consumed))
            job.run()
        else:
            job = self._jobs.popleft()
        try:
            payload = job.wait()
        except BaseException:
            self.close()
            raise
        epoch = self._consumed
        self._consumed += 1
        self._submit()
        if self.epochs_remaining == 0 and self._worker is not None:
            self._worker.close()  # every epoch delivered: nothing left to run
        hidden, wait = split_hidden(
            [job], needed, telemetry.active_tracer(), "prefetch", [{"epoch": epoch}]
        )
        self.stats.epochs += 1
        self.stats.load_s += hidden + wait
        self.stats.hidden_s += hidden
        self.stats.wait_s += wait
        return payload

    def close(self) -> None:
        """Drop the epochs not yet loading and join the one that is.
        Idempotent; trainers call it from a ``finally``, also on
        mid-epoch exceptions."""
        if self._closed:
            return
        self._closed = True
        self._jobs.clear()
        if self._worker is not None:
            self._worker.close()

    def __repr__(self):
        mode = "sync" if self.synchronous else f"depth={PREFETCH_DEPTH}"
        return (
            f"<EpochPrefetcher {self._consumed}/{self.epochs}"
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
        synchronous: bool = False,
    ) -> "EpochPrefetcher":
        """Prefetch shard-shuffled ``(x, y)`` views of in-memory arrays."""
        if len(x) != len(y):
            raise ValueError(
                f"x and y disagree on length: {len(x)} vs {len(y)}"
            )

        def load(epoch: int):
            return shard_shuffled_view(x, y, seed, epoch, shard_rows)

        return cls(load, epochs, synchronous=synchronous)

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
        (its ``shuffle_seed``)."""
        seed = config.shuffle_seed if config.shuffle_seed is not None else 0
        return cls.from_arrays(
            x, y, epochs,
            seed=seed,
            shard_rows=shard_rows,
            synchronous=synchronous,
        )
