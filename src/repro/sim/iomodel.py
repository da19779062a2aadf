"""Analytic data-loading time model (calibrated to Tables 3 & 4).

One CSV load decomposes exactly like :mod:`repro.frame.csv`'s engines:

slow (``low_memory=True``, the original CANDLE loader)::

    t = per_file + bytes * conv_slow_pb
        + n_internal_chunks * cols * slow_per_colchunk * difficulty
        + io(bytes, N)

    n_internal_chunks = rows / max(1, SLOW_CHUNK_BYTES // row_bytes)

The block term is the whole story for the wide genomics files: NT3's
533 KB rows force one row per 256 KB internal chunk, so the per-column
block cost is paid ``rows x cols`` times (67.7M for NT3 → ~72 s),
while P1B3's 353 B rows pack ~740 rows per chunk and the term vanishes
— which is precisely the paper's Table 3 contrast.

fast (``low_memory=False`` chunked, the paper's fix)::

    t = per_file + bytes * conv_fast_pb + cells * fast_per_cell + io(bytes, N)

dask sits between the two (§5: "better than the original method but
worse than the data loading in chunks with low_memory=False").

``io(bytes, N)`` is the filesystem read under N-client contention
(:class:`repro.cluster.filesystem.FilesystemSpec`): negligible for one
client, dominant on Theta's Lustre at hundreds of clients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.candle.base import BenchmarkSpec
from repro.cluster.machine import MachineSpec, ParseRates

__all__ = [
    "FileShape",
    "IoModel",
    "benchmark_files",
    "LOAD_METHODS",
    "PAPER_METHODS",
    "PREFETCH_EFFICIENCY",
    "exposed_load_seconds",
    "prefetch_timeline_seconds",
]

#: the paper's original three-way comparison
PAPER_METHODS = ("original", "chunked", "dask")

#: share of a background epoch load that can actually hide behind the
#: trainer's compute — the loader thread contends with the trainer for
#: the interpreter between the NumPy regions that release it, the same
#: kind of discount :data:`repro.sim.computemodel.OVERLAP_EFFICIENCY`
#: applies to allreduce-behind-backward
PREFETCH_EFFICIENCY = 0.85


def exposed_load_seconds(
    load_s: float, compute_s: float, efficiency: float = PREFETCH_EFFICIENCY
) -> float:
    """Per-epoch load time left on the critical path under prefetch.

    While the trainer computes an epoch (``compute_s``), the background
    loader prepares the next one; ``min(load_s * efficiency,
    compute_s)`` of the load hides behind that compute and the rest is
    exposed as ``prefetch_wait``. The analogue, one level up the stack,
    of :func:`repro.sim.computemodel.exposed_comm_seconds`.
    """
    if load_s < 0 or compute_s < 0:
        raise ValueError(
            f"times must be non-negative, got load={load_s} compute={compute_s}"
        )
    if not 0 < efficiency <= 1:
        raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")
    hidden = min(load_s * efficiency, compute_s)
    return load_s - hidden


def prefetch_timeline_seconds(
    load_s: float,
    compute_s: float,
    epochs: int,
    efficiency: float = PREFETCH_EFFICIENCY,
) -> float:
    """Wall time of ``epochs`` (load → train) rounds under prefetch.

    Epoch 0's load has nothing to hide behind and is fully exposed;
    each later epoch pays only its :func:`exposed_load_seconds`
    remainder. With ``efficiency`` such that the load fully hides, the
    timeline approaches ``load_s + epochs * compute_s`` — versus the
    synchronous ``epochs * (load_s + compute_s)``.
    """
    if epochs < 0:
        raise ValueError(f"epochs must be non-negative, got {epochs}")
    if epochs == 0:
        return 0.0
    exposed = exposed_load_seconds(load_s, compute_s, efficiency)
    return load_s + epochs * compute_s + (epochs - 1) * exposed


#: every modeled ingest method (the paper's three plus repro.ingest's
#: parallel span decode, binary column-store cache, and row sharding)
LOAD_METHODS = ("original", "chunked", "dask", "parallel", "cached", "sharded")


@dataclass(frozen=True)
class FileShape:
    """Geometry of one CSV file."""

    name: str
    rows: int
    cols: int
    nbytes: int
    #: slow-path block-cost multiplier inherited from the benchmark
    difficulty: float = 1.0

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0 or self.nbytes <= 0:
            raise ValueError(f"file geometry must be positive: {self}")
        if self.difficulty <= 0:
            raise ValueError(f"difficulty must be positive: {self}")

    @property
    def cells(self) -> int:
        return self.rows * self.cols

    @property
    def row_bytes(self) -> float:
        return self.nbytes / self.rows

    def internal_chunks(self, budget_bytes: int) -> int:
        """Slow-path internal chunk count under a byte budget."""
        rows_per_chunk = max(1, int(budget_bytes // max(1.0, self.row_bytes)))
        return math.ceil(self.rows / rows_per_chunk)


def benchmark_files(spec: BenchmarkSpec) -> Tuple[FileShape, FileShape]:
    """(train, test) file shapes of a benchmark at full Table 1 scale."""
    if spec.csv_cols is not None:
        cols = spec.csv_cols
    else:
        cols = spec.elements_per_sample + (0 if spec.task == "autoencoder" else 1)
    train = FileShape(
        name=f"{spec.name.lower()}_train",
        rows=spec.train_samples,
        cols=cols,
        nbytes=spec.train_bytes,
        difficulty=spec.parse_difficulty,
    )
    test = FileShape(
        name=f"{spec.name.lower()}_test",
        rows=spec.test_samples,
        cols=cols,
        nbytes=spec.test_bytes,
        difficulty=spec.parse_difficulty,
    )
    return train, test


class IoModel:
    """Data-loading seconds for files on a machine, by method."""

    #: where the Dask comparator lands between slow and fast (§5)
    DASK_FRACTION = 0.35

    #: default decode-worker pool of the span-parallel reader
    PARALLEL_WORKERS = 8

    #: pool efficiency: span framing, result pickling, and the final
    #: concat keep the speedup below the worker count
    PARALLEL_EFFICIENCY = 0.8

    #: effective bandwidth reading the memmap-able binary column store
    #: (sequential .npy block reads — no tokenizing, no conversion)
    CACHED_READ_BYTES_PER_S = 2.0e9

    def __init__(self, machine: MachineSpec):
        self.machine = machine

    # -- parse components -------------------------------------------------
    def parse_seconds(self, shape: FileShape, method: str) -> float:
        """CPU-side parse time (contention-free, whole file)."""
        p = self.machine.parse
        if method == "original":
            return self._slow_parse(shape, p)
        if method in ("chunked", "sharded"):
            # a shard is the fast engine over rows/N — the 1/N factor is
            # applied in load_seconds where the client count is known
            return self._fast_parse(shape, p)
        if method == "dask":
            slow = self._slow_parse(shape, p)
            fast = self._fast_parse(shape, p)
            return fast + self.DASK_FRACTION * (slow - fast)
        if method == "parallel":
            fast = self._fast_parse(shape, p) - p.per_file
            speedup = max(1.0, self.PARALLEL_WORKERS * self.PARALLEL_EFFICIENCY)
            return p.per_file + fast / speedup
        if method == "cached":
            # binary reload: one float64 cell per CSV cell, no text pass
            return p.per_file + shape.cells * 8.0 / self.CACHED_READ_BYTES_PER_S
        raise ValueError(f"unknown method {method!r}; known: {LOAD_METHODS}")

    @staticmethod
    def _slow_parse(shape: FileShape, p: ParseRates) -> float:
        chunks = shape.internal_chunks(ParseRates.SLOW_CHUNK_BYTES)
        return (
            p.per_file
            + shape.nbytes * p.conv_slow_pb
            + chunks * shape.cols * p.slow_per_colchunk * shape.difficulty
        )

    @staticmethod
    def _fast_parse(shape: FileShape, p: ParseRates) -> float:
        return (
            p.per_file
            + shape.nbytes * p.conv_fast_pb
            + shape.cells * p.fast_per_cell
        )

    # -- totals --------------------------------------------------------------
    def read_seconds(self, shape: FileShape, nclients: int) -> float:
        """Filesystem time for one client among ``nclients``."""
        return self.machine.filesystem.read_time_s(shape.nbytes, nclients)

    def load_seconds(self, shape: FileShape, method: str, nclients: int = 1) -> float:
        """Total per-rank load time for one file.

        Shared-read contention multiplies the parse pipeline (client
        stalls interleave with parsing — see FilesystemSpec) and the raw
        transfer pays its aggregate-bandwidth share.

        ``sharded`` departs from the every-rank-reads-everything
        pattern: each of the N clients parses rows/N (so parse time
        divides by N) and the byte ranges are disjoint, which removes
        the N-to-1 shared-read lock pressure (contention factor 1); the
        shard exchange itself is collective traffic, modeled by the
        fabric layer, not here.
        """
        if nclients < 1:
            raise ValueError(f"nclients must be >= 1, got {nclients}")
        if method == "sharded":
            parse = self.parse_seconds(shape, method) / nclients
            return parse + self.machine.filesystem.read_time_s(
                shape.nbytes / nclients, nclients
            )
        contention = self.machine.filesystem.parse_contention_factor(nclients)
        return self.parse_seconds(shape, method) * contention + self.read_seconds(
            shape, nclients
        )

    def benchmark_load_seconds(
        self, spec: BenchmarkSpec, method: str, nclients: int = 1
    ) -> float:
        """Train + test file load time for a benchmark (phase 1 total)."""
        train, test = benchmark_files(spec)
        return self.load_seconds(train, method, nclients) + self.load_seconds(
            test, method, nclients
        )

    def prefetched_epochs_seconds(
        self,
        shape: FileShape,
        method: str,
        compute_s: float,
        epochs: int,
        nclients: int = 1,
        efficiency: float = PREFETCH_EFFICIENCY,
    ) -> float:
        """Wall time of ``epochs`` per-epoch reloads of ``shape`` fed
        through the background prefetcher while each epoch computes for
        ``compute_s`` (see :func:`prefetch_timeline_seconds`)."""
        load = self.load_seconds(shape, method, nclients)
        return prefetch_timeline_seconds(load, compute_s, epochs, efficiency)

    def table_row(self, spec: BenchmarkSpec) -> Dict[str, float]:
        """One benchmark's Table 3/4 row: single-client seconds per file."""
        train, test = benchmark_files(spec)
        return {
            "train_original": self.load_seconds(train, "original"),
            "train_chunked": self.load_seconds(train, "chunked"),
            "test_original": self.load_seconds(test, "original"),
            "test_chunked": self.load_seconds(test, "chunked"),
        }
