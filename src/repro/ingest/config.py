"""Loader configuration records for the :class:`~repro.ingest.DataSource` API.

One :class:`LoaderConfig` value describes *how* a CSV should become a
DataFrame — which engine (``method``), how wide its chunks are, how many
decode workers fan out, where the binary cache lives, and which row
shard (if any) this rank owns. The config is a frozen value object so it
can be shared across SPMD rank threads and hashed into cache keys.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional

from repro.options import FrozenOptions, require_positive

__all__ = ["LoaderConfig", "ShardSpec", "PAPER_CHUNK_SIZE", "DEFAULT_BLOCK_BYTES"]

#: the paper's csize (§5): effectively "one big chunk" for the wide files
PAPER_CHUNK_SIZE = 2_000_000

#: default byte-span granularity for the parallel/sharded readers;
#: 16 MB matches Spectrum Scale's largest I/O block (the paper's chunk
#: sizing argument) while still giving a worker pool enough spans
DEFAULT_BLOCK_BYTES = 16 << 20


@dataclass(frozen=True)
class ShardSpec:
    """This rank's slice of a row-sharded load.

    ``rank`` of ``world_size`` reads only its newline-aligned byte span.
    With ``allgather=True`` (the default the parallel runner uses) the
    shards are exchanged through the communicator afterwards so every
    rank ends up with the full frame — total text parsed per rank drops
    to 1/N, which is what shrinks the paper's broadcast skew.
    """

    rank: int
    world_size: int
    allgather: bool = True

    def __post_init__(self):
        if self.world_size <= 0:
            raise ValueError(f"world_size must be positive, got {self.world_size}")
        if not 0 <= self.rank < self.world_size:
            raise ValueError(
                f"rank {self.rank} out of range for world_size {self.world_size}"
            )


@dataclass(frozen=True)
class LoaderConfig(FrozenOptions):
    """Everything :meth:`DataSource.load` needs beyond the path.

    ``method`` names an entry in the ingest method registry (see
    :data:`repro.ingest.INGEST_METHODS`). ``num_workers=0`` means "pick
    from the CPU count". ``low_memory=None`` defers to the method's
    natural engine (True for ``original``, False otherwise).
    ``cache_dir=None`` puts the column store next to the source file in
    an ``.ingest-cache`` directory.
    """

    method: str = "chunked"
    chunksize: int = PAPER_CHUNK_SIZE
    num_workers: int = 0
    block_bytes: int = DEFAULT_BLOCK_BYTES
    low_memory: Optional[bool] = None
    cache_dir: Optional[str] = None
    refresh_cache: bool = False
    shard: Optional[ShardSpec] = None
    #: overlap epoch-N+1 data preparation with epoch-N compute via a
    #: background :class:`repro.ingest.prefetch.EpochPrefetcher`
    prefetch: bool = False
    #: seed of the per-epoch shard-granular shuffle; the same seed gives
    #: the same epoch order on every rank (bit-reproducible shuffling).
    #: None keeps the trainer's own shuffle (prefetch then disables it).
    shuffle_seed: Optional[int] = None

    def __post_init__(self):
        if not self.method or not isinstance(self.method, str):
            raise ValueError(f"method must be a non-empty string, got {self.method!r}")
        require_positive("chunksize", self.chunksize)
        if self.num_workers < 0:
            raise ValueError(f"num_workers must be >= 0, got {self.num_workers}")
        require_positive("block_bytes", self.block_bytes)
        if not isinstance(self.prefetch, bool):
            raise ValueError(f"prefetch must be a bool, got {self.prefetch!r}")
        if self.shuffle_seed is not None:
            if not isinstance(self.shuffle_seed, int) or isinstance(
                self.shuffle_seed, bool
            ) or self.shuffle_seed < 0:
                raise ValueError(
                    f"shuffle_seed must be a non-negative int or None, "
                    f"got {self.shuffle_seed!r}"
                )

    # -- derived views -----------------------------------------------------
    @property
    def effective_low_memory(self) -> bool:
        """The engine this config selects when the method defers."""
        if self.low_memory is not None:
            return self.low_memory
        return self.method == "original"

    @property
    def effective_workers(self) -> int:
        """Resolved worker count (``0`` → CPU count, capped at 8)."""
        if self.num_workers > 0:
            return self.num_workers
        return max(1, min(8, os.cpu_count() or 1))

    def with_shard(
        self, rank: int, world_size: int, allgather: bool = True
    ) -> "LoaderConfig":
        """This config, sharded for one rank of an SPMD world."""
        return replace(
            self,
            method="sharded",
            shard=ShardSpec(rank=rank, world_size=world_size, allgather=allgather),
        )
