"""The DataSource API surface: registry, configs, results."""

from __future__ import annotations

import numpy as np
import pytest

from repro.frame import read_csv
from repro.ingest import (
    DataSource,
    INGEST_METHODS,
    LoaderConfig,
    as_config,
    ingest_methods,
    register_method,
)
from repro.ingest.source import _REGISTRY


def test_builtin_registry_contents():
    assert INGEST_METHODS == (
        "original",
        "chunked",
        "dask",
        "parallel",
        "cached",
        "sharded",
    )
    assert DataSource.methods() == ingest_methods()


def test_register_method_extends_the_registry(mixed_csv):
    @register_method("_test_rot13")
    def _loader(path, config, comm=None):
        return read_csv(path, header=None, low_memory=False)

    try:
        assert "_test_rot13" in DataSource.methods()
        result = DataSource(mixed_csv).load(LoaderConfig(method="_test_rot13"))
        assert result.method == "_test_rot13"
        assert result.rows > 0
    finally:
        _REGISTRY.pop("_test_rot13")


def test_unknown_method_raises_with_known_list(mixed_csv):
    with pytest.raises(ValueError, match="unknown method 'pandas'"):
        DataSource(mixed_csv).load(LoaderConfig(method="pandas"))


@pytest.mark.parametrize("method", ["original", "chunked", "dask", "parallel"])
def test_every_text_method_agrees(mixed_csv, method):
    serial = read_csv(mixed_csv, header=None, low_memory=False)
    result = DataSource(mixed_csv).load(LoaderConfig(method=method))
    assert result.frame.equals(serial)
    assert result.seconds > 0
    assert result.method == method
    assert result.cache_hit is None


def test_load_result_row_and_stats(mixed_csv):
    result = DataSource(mixed_csv).load(LoaderConfig(method="chunked"))
    row = result.as_row()
    assert row["method"] == "chunked"
    assert row["rows"] == result.rows == len(result.frame)
    assert result.stats is not None and result.stats.chunks_parsed >= 1


def test_loader_config_validation():
    with pytest.raises(ValueError):
        LoaderConfig(method="")
    with pytest.raises(ValueError):
        LoaderConfig(chunksize=0)
    with pytest.raises(ValueError):
        LoaderConfig(num_workers=-1)
    with pytest.raises(ValueError):
        LoaderConfig(block_bytes=0)


def test_loader_config_derived_views():
    assert LoaderConfig(method="original").effective_low_memory is True
    assert LoaderConfig(method="parallel").effective_low_memory is False
    assert LoaderConfig(method="original", low_memory=False).effective_low_memory is False
    assert LoaderConfig(num_workers=3).effective_workers == 3
    assert LoaderConfig().effective_workers >= 1
    sharded = LoaderConfig(method="chunked").with_shard(2, 4, allgather=False)
    assert sharded.method == "sharded"
    assert (sharded.shard.rank, sharded.shard.world_size) == (2, 4)
    assert sharded.shard.allgather is False


def test_as_config_passthrough_and_names():
    config = LoaderConfig(method="parallel")
    assert as_config(config) is config
    assert as_config("dask").method == "dask"
    assert as_config(None).method == "chunked"


def test_ingest_load_benchmark_data_does_not_warn(tmp_path):
    from repro.candle import get_benchmark
    from repro.ingest import load_benchmark_data

    nt3 = get_benchmark("nt3", scale=0.005, sample_scale=0.2)
    train, test = nt3.write_files(tmp_path, rng=np.random.default_rng(0))
    data = load_benchmark_data(nt3, train, test, method="chunked")
    assert data.load_seconds > 0
