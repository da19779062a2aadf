"""``from_frames``: views of the loaded frame's blocks, the old copy's values.

The oracle is the rule ``from_frames`` replaced: the whole frame copied
by ``to_numpy(float64)``, then split into ``(x, y)`` per benchmark.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.candle import get_benchmark
from repro.candle.data import one_hot
from repro.frame import DataFrame, mmap_base
from repro.ingest import DataSource, LoaderConfig, load_benchmark_data
from repro.ingest.config import ShardSpec
from repro.mpi import run_spmd

GEOMETRY = {
    "nt3": dict(scale=0.002, sample_scale=0.05),
    "p1b1": dict(scale=0.002, sample_scale=0.05),
    "p1b2": dict(scale=0.004, sample_scale=0.05),
    "p1b3": dict(scale=0.02, sample_scale=0.0005),
}


def copy_then_split(bench, frame):
    """``(x, y)`` by the rule before views: copy the frame, then split."""
    matrix = frame.to_numpy(dtype=np.float64)
    name = bench.spec.name
    if name == "P1B1":
        return matrix, matrix
    if name == "P1B3":
        return matrix[:, 1:], matrix[:, :1]
    x = matrix[:, 1:]
    y = one_hot(matrix[:, 0].astype(np.int64), bench.spec.num_classes)
    return (x[..., None] if name == "NT3" else x), y


def assert_same(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b, equal_nan=True)


@pytest.fixture(scope="module", params=sorted(GEOMETRY))
def files(request, tmp_path_factory):
    bench = get_benchmark(request.param, **GEOMETRY[request.param])
    return bench, bench.write_files(tmp_path_factory.mktemp(request.param),
                                    rng=np.random.default_rng(5))


METHODS = ["original", "chunked", "dask", "parallel", "cached_cold", "cached_warm"]


@pytest.mark.parametrize("method", METHODS)
def test_each_method_gives_the_copied_values(files, method, tmp_path):
    bench, paths = files
    config = LoaderConfig(method=method.split("_")[0], num_workers=2, cache_dir=tmp_path)
    if method == "cached_warm":
        for path in paths:
            DataSource(path).load(config)
    frames = [DataSource(path).load(config).frame for path in paths]
    data = bench.from_frames(*frames)
    train, test = (copy_then_split(bench, f) for f in frames)
    assert_same((data.x_train, data.y_train, data.x_test, data.y_test), (*train, *test))


def test_sharded_ranks_give_the_copied_values(files):
    bench, paths = files

    def rank_frames(comm):
        config = LoaderConfig(method="sharded").with_shard(comm.rank, comm.size)
        return [DataSource(path).load(config, comm=comm).frame for path in paths]

    for train, test in run_spmd(2, rank_frames):
        data = bench.from_frames(train, test)
        want = (*copy_then_split(bench, train), *copy_then_split(bench, test))
        assert_same((data.x_train, data.y_train, data.x_test, data.y_test), want)


def test_a_warm_cached_load_maps_its_features_read_only(files, tmp_path):
    bench, paths = files
    config = LoaderConfig(method="cached", cache_dir=tmp_path)
    load_benchmark_data(bench, *paths, method=config)
    data = load_benchmark_data(bench, *paths, method=config)
    if bench.spec.name == "P1B2":  # integer SNP columns: cast, so copied
        assert mmap_base(data.x_train) is None
        return
    assert mmap_base(data.x_train) is not None and mmap_base(data.x_test) is not None
    stored = {p: p.read_bytes() for p in Path(tmp_path).rglob("*.npy")}
    with pytest.raises(ValueError, match="read-only"):
        data.x_train[0, 0] = data.x_train[0, 0] + 1.0
    assert {p: p.read_bytes() for p in stored} == stored


def test_a_world_2_sharded_cached_load_holds_no_heap_feature_bytes(tmp_path):
    bench = get_benchmark("nt3", **GEOMETRY["nt3"])
    paths = bench.write_files(tmp_path, rng=np.random.default_rng(6))
    cache = tmp_path / "cache"
    load_benchmark_data(bench, *paths, method=LoaderConfig(method="cached", cache_dir=cache))

    def rank_heap_bytes(comm):
        shard = ShardSpec(rank=comm.rank, world_size=comm.size)
        config = LoaderConfig(method="cached", cache_dir=cache, shard=shard)
        data = load_benchmark_data(bench, *paths, method=config, comm=comm)
        # resident_nbytes' rule: a mapped array is page cache, not heap
        return [0 if mmap_base(x) is not None else x.nbytes for x in (data.x_train, data.x_test)]

    assert run_spmd(2, rank_heap_bytes) == [[0, 0], [0, 0]]


def test_an_int64_feature_in_the_middle_falls_back_to_a_copy():
    rng = np.random.default_rng(2)
    floats, ints = rng.random((9, 6)), rng.integers(0, 2, size=(9, 2))
    # columns: label (int), 3 floats, an int feature, 3 floats
    frame = DataFrame._from_blocks(
        list(range(8)), [floats, ints], [1, 0, 0, 0, 1, 0, 0, 0], [0, 0, 1, 2, 1, 3, 4, 5], 9
    )
    bench = get_benchmark("nt3", **GEOMETRY["nt3"])
    data = bench.from_frames(frame, frame)
    assert mmap_base(data.x_train) is None and not np.shares_memory(data.x_train, floats)
    assert_same((data.x_train, data.y_train), copy_then_split(bench, frame))
