"""Per-rank sharded CSV loading.

Every CANDLE rank historically re-parsed the *same* file end-to-end
("pandas.read_csv() … read the data files locally", one copy per rank)
— the root of the load skew that gates the paper's 43.72 s
``negotiate_broadcast``. Sharded loading splits the file into
``world_size`` contiguous newline-aligned byte spans; rank *r* parses
only span *r* (1/N of the text), then the shards are optionally
exchanged with one allgather so benchmarks that need the full frame
still get it — for 1/N of the per-rank parse time.

The union of all shards is exactly the serial frame: spans partition
the bytes, no line straddles a boundary, and dtype promotion over the
shard concat matches promotion over any other chunking of the rows.
"""

from __future__ import annotations

import math
import os
import time
from typing import Optional, Sequence

from repro.frame.csv import newline_spans
from repro.frame.dataframe import DataFrame, concat
from repro.ingest.config import LoaderConfig, ShardSpec
from repro.ingest.parallel import _resolve_names, parse_span
from repro.telemetry import runtime as telemetry

__all__ = [
    "shard_spans",
    "read_csv_shard",
    "union_shards",
    "load_sharded",
    "shard_row_slice",
    "shard_frame",
]


def shard_row_slice(n_rows: int, rank: int, world_size: int) -> slice:
    """Rank ``rank``'s contiguous row slice of an ``n_rows`` frame.

    Balanced to within one row, in rank order, covering every row
    exactly once. Returned as a ``slice`` (not an index array) so
    applying it to a memory-mapped column yields a zero-copy view —
    the mechanism that lets a node's ranks share page-cache pages
    instead of each materializing the full array.
    """
    if world_size <= 0:
        raise ValueError(f"world_size must be positive, got {world_size}")
    if not 0 <= rank < world_size:
        raise ValueError(f"rank {rank} out of range for world_size {world_size}")
    if n_rows < 0:
        raise ValueError(f"n_rows must be non-negative, got {n_rows}")
    base, extra = divmod(n_rows, world_size)
    start = rank * base + min(rank, extra)
    stop = start + base + (1 if rank < extra else 0)
    return slice(start, stop)


def shard_frame(frame: DataFrame, rank: int, world_size: int) -> DataFrame:
    """This rank's zero-copy row shard of an in-memory or mmap frame.

    Every column of the result is a slice view of the parent column —
    memory-mapped columns stay memory-mapped (``resident_nbytes`` of
    the shard is 0), and the rank-ordered union of all shards equals
    the full frame row-for-row.
    """
    return frame.iloc(shard_row_slice(len(frame), rank, world_size))


def shard_spans(path, world_size: int) -> list[tuple[int, int]]:
    """Exactly ``world_size`` newline-aligned spans covering the file.

    Boundaries start at ``size/world_size`` multiples and extend to the
    next newline; a span may be empty (``start == end``) when ranks
    outnumber lines. The spans partition the file in rank order.
    """
    if world_size <= 0:
        raise ValueError(f"world_size must be positive, got {world_size}")
    size = os.path.getsize(path)
    target = max(1, math.ceil(size / world_size))
    spans = newline_spans(path, target, size=size)
    # newline extension can swallow trailing targets on tiny files; pad
    # with empty spans so every rank has one
    while len(spans) < world_size:
        spans.append((size, size))
    # or merge the excess into the last real span (rounding produced
    # world_size+1 spans)
    while len(spans) > world_size:
        last_start, last_end = spans.pop()
        prev_start, _ = spans.pop()
        spans.append((prev_start, last_end))
    return spans


def read_csv_shard(
    path,
    rank: int,
    world_size: int,
    low_memory: bool = False,
    sep: str = ",",
    names: Optional[Sequence] = None,
) -> DataFrame:
    """Parse only this rank's row shard of a headerless CSV."""
    path = str(path)
    resolved = list(names) if names is not None else _resolve_names(path, sep)
    span = shard_spans(path, world_size)[rank]
    if span[0] >= span[1]:
        frame = DataFrame({name: [] for name in resolved})
    else:
        frame, stats = parse_span(path, span, resolved, low_memory, sep)
        frame.parse_stats = stats
    return frame


def union_shards(frames: Sequence[DataFrame]) -> DataFrame:
    """Rank-ordered shard concat == the full serial frame.

    Zero-row shards are dropped first: an empty frame's float64 columns
    would otherwise poison integer-column promotion.
    """
    frames = list(frames)
    if not frames:
        raise ValueError("cannot union an empty list of shards")
    nonempty = [f for f in frames if len(f) > 0]
    if not nonempty:
        return frames[0]
    if len(nonempty) == 1:
        return nonempty[0]
    return concat(nonempty, axis=0, ignore_index=True)


def load_sharded(path, config: LoaderConfig, comm=None) -> DataFrame:
    """One rank's sharded load, with optional allgather to the full frame.

    The shard identity comes from ``config.shard`` or, failing that,
    from ``comm`` (a :class:`repro.mpi.Communicator`). With
    ``allgather=True`` and a communicator, every rank returns the full
    frame after one collective — the drop-in replacement for N ranks
    each parsing the whole file. The local parse and the exchange are
    recorded as ``shard_parse`` / ``shard_allgather`` spans on the
    rank's tracer, beside the paper's ``negotiate_*`` events.
    """
    shard = config.shard
    if shard is None:
        if comm is None:
            raise ValueError(
                "sharded load needs config.shard or a communicator to "
                "derive (rank, world_size) from"
            )
        shard = ShardSpec(rank=comm.rank, world_size=comm.size)
    tracer = telemetry.thread_tracer()
    rank = comm.rank if comm is not None else shard.rank
    t0 = time.perf_counter()
    local = read_csv_shard(
        path,
        shard.rank,
        shard.world_size,
        low_memory=config.effective_low_memory,
    )
    if tracer is not None:
        tracer.record_span(
            "shard_parse", t0, time.perf_counter() - t0, category="io",
            rank=rank, absolute=True, rows=len(local),
            world_size=shard.world_size,
        )
    if not shard.allgather or shard.world_size == 1:
        return local
    if comm is None:
        raise ValueError("allgather=True requires a communicator")
    t1 = time.perf_counter()
    gathered = comm.allgather(local)  # rank-ordered by construction
    full = union_shards(gathered)
    if tracer is not None:
        tracer.record_span(
            "shard_allgather", t1, time.perf_counter() - t1, category="io",
            rank=rank, absolute=True, rows=len(full),
        )
    full.parse_stats = getattr(local, "parse_stats", None)
    return full
