"""repro.ingest — the high-throughput data-ingest subsystem.

The paper stops at a faster *serial* parse (§5: chunked
``read_csv`` with ``low_memory=False``). This package carries the same
file formats the rest of the way:

- :class:`DataSource` / :class:`LoaderConfig` — the single loading API
  with a method registry (``original``, ``chunked``, ``dask``,
  ``parallel``, ``cached``, ``sharded``).
- :mod:`repro.ingest.parallel` — newline-aligned byte spans decoded
  across a process pool, bit-identical to the serial engines.
- :mod:`repro.ingest.cache` — a memmap-able ``.npy`` column store keyed
  by (path, size, mtime, header sha256); reloads skip text entirely.
- :mod:`repro.ingest.split` — a cold cache miss parsed on two cores: a
  forked child casts half the file into a shared mapping, and the
  pieces are the serial parse's.
- :mod:`repro.ingest.shard` — per-rank row shards with an optional
  allgather, so N SPMD ranks parse 1/N of the text each instead of N
  full copies (the mechanism behind the paper's broadcast skew).
- :mod:`repro.ingest.prefetch` — double-buffered background epoch
  loading with seeded, bit-reproducible shard-granular shuffling, so
  epoch N+1's data work hides behind epoch N's compute.
"""

from repro.frame.csv import newline_spans
from repro.ingest.benchmark import as_config, load_benchmark_data
from repro.ingest.cache import ColumnStoreCache, DEFAULT_CACHE_DIRNAME
from repro.ingest.config import (
    DEFAULT_BLOCK_BYTES,
    PAPER_CHUNK_SIZE,
    LoaderConfig,
    ShardSpec,
)
from repro.ingest.parallel import read_csv_parallel
from repro.ingest.prefetch import (
    DEFAULT_SHARD_ROWS,
    EpochPrefetcher,
    PrefetchStats,
    epoch_shard_order,
    shard_shuffled_view,
)
from repro.ingest.shard import (
    read_csv_shard,
    shard_frame,
    shard_row_slice,
    shard_spans,
    union_shards,
)
from repro.ingest.source import (
    INGEST_METHODS,
    DataSource,
    LoadResult,
    ingest_methods,
    register_method,
)

__all__ = [
    "DataSource",
    "LoadResult",
    "LoaderConfig",
    "ShardSpec",
    "register_method",
    "ingest_methods",
    "INGEST_METHODS",
    "PAPER_CHUNK_SIZE",
    "DEFAULT_BLOCK_BYTES",
    "DEFAULT_CACHE_DIRNAME",
    "ColumnStoreCache",
    "read_csv_parallel",
    "read_csv_shard",
    "newline_spans",
    "shard_spans",
    "shard_row_slice",
    "shard_frame",
    "union_shards",
    "EpochPrefetcher",
    "PrefetchStats",
    "epoch_shard_order",
    "shard_shuffled_view",
    "DEFAULT_SHARD_ROWS",
    "load_benchmark_data",
    "as_config",
]
