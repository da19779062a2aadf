"""Benchmark-facing helpers: phase 1 of Figure 2 through the DataSource API."""

from __future__ import annotations

from typing import Union

from repro.ingest.config import LoaderConfig
from repro.ingest.source import DataSource

__all__ = ["load_benchmark_data", "as_config"]


def as_config(method: Union[str, LoaderConfig, None]) -> LoaderConfig:
    """Coerce a legacy method name (or None) to a LoaderConfig."""
    if isinstance(method, LoaderConfig):
        return method
    return LoaderConfig(method=method if method is not None else "chunked")


def load_benchmark_data(
    benchmark,
    train_path,
    test_path,
    method: Union[str, LoaderConfig] = "original",
    comm=None,
):
    """Phase 1 of Figure 2: load + preprocess both files for a benchmark.

    ``benchmark`` is a :class:`repro.candle.CandleBenchmark`; the frames
    become its :class:`~repro.candle.base.LoadedData` through
    ``benchmark.from_frames``. ``method`` is a registry name or a full :class:`LoaderConfig`;
    SPMD ranks pass their communicator so ``sharded`` configs resolve
    rank identity and can allgather the shards.
    """
    config = as_config(method)
    train = DataSource(train_path).load(config, comm=comm)
    test = DataSource(test_path).load(config, comm=comm)
    data = benchmark.from_frames(train.frame, test.frame)
    data.load_seconds = train.seconds + test.seconds
    return data
