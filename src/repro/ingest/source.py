"""The unified loading API: ``DataSource(path).load(LoaderConfig(...))``.

One front door for every way of loading the paper's CSVs, with an
extensible method registry:

========== ==========================================================
method     engine
========== ==========================================================
original   ``read_csv(low_memory=True)`` — the CANDLE default (§5)
chunked    the paper's fix: chunked iteration, ``low_memory=False``
dask       the Dask-DataFrame comparator (partitioned thread pool)
parallel   span-parallel process-pool decode (:mod:`repro.ingest.parallel`)
cached     binary column-store cache (:mod:`repro.ingest.cache`)
sharded    per-rank row shards + optional allgather (:mod:`repro.ingest.shard`)
========== ==========================================================

New methods register with :func:`register_method`; every loader
receives ``(path, config, comm)`` and returns a DataFrame (optionally
a ``(frame, cache_hit)`` pair). :meth:`DataSource.load` wraps the
result with wall time and parse statistics in a :class:`LoadResult`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.frame.csv import LAST_PARSE_STATS, ParseStats, read_csv
from repro.frame.dask_like import PartitionedCSVReader
from repro.frame.dataframe import DataFrame, concat
from repro.ingest.cache import ColumnStoreCache
from repro.ingest.config import LoaderConfig, ShardSpec
from repro.ingest.parallel import read_csv_parallel
from repro.ingest.shard import load_sharded, shard_frame
from repro.ingest.split import parse_pieces_split
from repro.telemetry import runtime as telemetry

__all__ = [
    "DataSource",
    "LoadResult",
    "register_method",
    "ingest_methods",
    "INGEST_METHODS",
]

_REGISTRY: dict[str, Callable] = {}


def register_method(name: str):
    """Decorator: add a loader ``fn(path, config, comm) -> frame`` to the
    registry under ``name`` (overwrites an existing entry)."""

    def deco(fn: Callable) -> Callable:
        _REGISTRY[name] = fn
        return fn

    return deco


def ingest_methods() -> tuple[str, ...]:
    """Registered method names, registration order."""
    return tuple(_REGISTRY)


@dataclass
class LoadResult:
    """One load: the frame plus how it was produced and what it cost."""

    frame: DataFrame
    seconds: float
    method: str
    path: str
    cache_hit: Optional[bool] = None
    stats: Optional[ParseStats] = None
    shard: Optional[ShardSpec] = None

    @property
    def rows(self) -> int:
        return len(self.frame)

    def as_row(self) -> dict:
        """Flat dict for report tables."""
        out = {
            "path": self.path,
            "method": self.method,
            "rows": self.rows,
            "seconds": round(self.seconds, 4),
        }
        if self.cache_hit is not None:
            out["cache_hit"] = self.cache_hit
        return out


class DataSource:
    """One loadable CSV file (the API every consumer goes through).

    ``DataSource(path).load(LoaderConfig(method='parallel'))`` — or just
    ``.load()`` for the paper's chunked fix. SPMD callers pass their
    :class:`repro.mpi.Communicator` so ``sharded`` loads can derive rank
    identity and run the shard-exchange allgather.
    """

    def __init__(self, path):
        self.path = str(path)

    @staticmethod
    def methods() -> tuple[str, ...]:
        return ingest_methods()

    def load(
        self, config: Optional[LoaderConfig] = None, comm=None
    ) -> LoadResult:
        config = config if config is not None else LoaderConfig()
        try:
            loader = _REGISTRY[config.method]
        except KeyError:
            raise ValueError(
                f"unknown method {config.method!r}; known: {list(_REGISTRY)}"
            ) from None
        span_attrs = {"method": config.method, "path": self.path}
        if config.shard is not None:
            span_attrs["shard_rank"] = config.shard.rank
            span_attrs["shard_world"] = config.shard.world_size
        t0 = time.perf_counter()
        with telemetry.span("ingest.load", category="ingest", **span_attrs) as sp:
            out = loader(self.path, config, comm)
            seconds = time.perf_counter() - t0
            frame, cache_hit = out if isinstance(out, tuple) else (out, None)
            if sp is not None:
                sp.set_attrs(rows=len(frame))
                if cache_hit is not None:
                    sp.set_attrs(cache_hit=cache_hit)
        telemetry.counter("ingest.loads", method=config.method)
        telemetry.counter("ingest.rows", len(frame), method=config.method)
        if cache_hit is not None:
            telemetry.counter(
                "ingest.cache.hit" if cache_hit else "ingest.cache.miss"
            )
        return LoadResult(
            frame=frame,
            seconds=seconds,
            method=config.method,
            path=self.path,
            cache_hit=cache_hit,
            stats=getattr(frame, "parse_stats", None),
            shard=config.shard,
        )

    def __repr__(self):
        return f"<DataSource {self.path!r}>"


# ---------------------------------------------------------------------------
# built-in methods
# ---------------------------------------------------------------------------

@register_method("original")
def _load_original(path, config: LoaderConfig, comm=None) -> DataFrame:
    """The CANDLE default: one read_csv call, ``low_memory=True``."""
    low_memory = True if config.low_memory is None else config.low_memory
    return read_csv(path, header=None, low_memory=low_memory)


def _parse_pieces(path, config: LoaderConfig) -> tuple[list[DataFrame], ParseStats]:
    """The ``chunked`` parse as row pieces whose concat is its frame (see
    :meth:`~repro.frame.CSVChunkIterator.read_pieces`), and its stats."""
    with read_csv(
        path,
        header=None,
        chunksize=config.chunksize,
        low_memory=False if config.low_memory is None else config.low_memory,
    ) as reader:
        pieces = reader.read_pieces()
    return pieces, LAST_PARSE_STATS.snapshot()


@register_method("chunked")
def _load_chunked(path, config: LoaderConfig, comm=None) -> DataFrame:
    """The paper's fix: chunked iteration with low_memory=False + concat."""
    pieces, stats = _parse_pieces(path, config)
    frame = concat(pieces, axis=0, ignore_index=True)
    frame.parse_stats = stats
    return frame


@register_method("dask")
def _load_dask(path, config: LoaderConfig, comm=None) -> DataFrame:
    """The Dask DataFrame comparator (§5: in between the other two)."""
    return PartitionedCSVReader(
        path,
        blocksize=min(config.block_bytes, 8 << 20),
        num_workers=config.effective_workers,
    ).read()


@register_method("parallel")
def _load_parallel(path, config: LoaderConfig, comm=None) -> DataFrame:
    """Span-parallel decode across a worker pool."""
    return read_csv_parallel(
        path,
        num_workers=config.effective_workers,
        block_bytes=config.block_bytes,
        low_memory=config.effective_low_memory,
    )


@register_method("cached")
def _load_cached(path, config: LoaderConfig, comm=None):
    """Column-store cache wrapper; parses only on a miss, on two cores.

    A hit maps each cached block once and copies nothing. A miss takes
    the file's fingerprint, parses it with the ``chunked`` engine, and
    has the cache write the parsed chunks to the entry (no concat) and
    hand back its memory-mapped frame. Either way the frame's columns,
    and the arrays ``from_frames`` takes from a run of float64 columns,
    are read-only views of the mapping; columns of another dtype are
    copied (see :mod:`repro.ingest.cache`).

    The miss's parse is :func:`~repro.ingest.split.parse_pieces_split`
    where it may run (a file of at least ``split.MIN_BYTES``, two cores,
    one OS thread): one forked child casts the second half of the file
    into a shared mapping while this process casts the first, and the
    pieces, warning and stats are the serial parse's. Anything it cannot
    reproduce, and every other miss, parses serially in this process
    (:func:`_parse_pieces`). Not the ``parallel`` pool: handing the
    parsed columns back from its workers cost more than the second core
    saved on the cold load.

    With ``config.shard`` set, the rank's contiguous row shard is
    returned as a zero-copy slice of the memory-mapped cache blocks —
    N ranks of a node share the block's page-cache pages instead of
    each materializing the full array, so per-rank resident bytes drop
    to ~1/N (``ShardSpec.allgather`` is ignored here: the mapping *is*
    the shared full frame). A miss stores the full file and shards the
    mapped frame the store hands back, so the shard is view-backed too.
    """
    cache = ColumnStoreCache.for_source(path, config.cache_dir)
    frame = cache.lookup(path)
    hit = frame is not None
    if not hit:
        fingerprint = cache.fingerprint(path)  # before the text is read
        parsed = parse_pieces_split(path, config)
        pieces, stats = parsed if parsed is not None else _parse_pieces(path, config)
        frame = cache.store(path, pieces, fingerprint)
        frame.parse_stats = stats
    if config.shard is not None:
        shard = shard_frame(frame, config.shard.rank, config.shard.world_size)
        shard.parse_stats = getattr(frame, "parse_stats", None)
        return shard, hit
    return frame, hit


@register_method("sharded")
def _load_sharded(path, config: LoaderConfig, comm=None) -> DataFrame:
    """Per-rank row shard, optionally allgathered to the full frame."""
    return load_sharded(path, config, comm=comm)

#: built-in method names (kept in sync with the registrations above)
INGEST_METHODS = ingest_methods()
