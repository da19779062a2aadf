"""Per-rank sharded loading: shard unions, SPMD allgather, runner wiring."""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.candle import get_benchmark
from repro.core import run_parallel_benchmark, strong_scaling_plan
from repro.frame import read_csv
from repro.ingest import (
    LoaderConfig,
    ShardSpec,
    read_csv_shard,
    shard_spans,
    union_shards,
)
from repro.ingest.shard import load_sharded
from repro.mpi import run_spmd
from repro.telemetry import Tracer, export_run


def test_shard_spans_partition_in_rank_order(mixed_csv):
    size = os.path.getsize(mixed_csv)
    for world in (1, 4, 6):
        spans = shard_spans(mixed_csv, world)
        assert len(spans) == world
        assert spans[0][0] == 0
        assert spans[-1][1] == size
        for (_, a_end), (b_start, _) in zip(spans, spans[1:]):
            assert a_end == b_start


def test_shard_spans_rejects_bad_world_size(mixed_csv):
    with pytest.raises(ValueError):
        shard_spans(mixed_csv, 0)


@pytest.mark.parametrize("world", [1, 4, 6])
def test_shard_union_equals_full_frame(mixed_csv, world):
    serial = read_csv(mixed_csv, header=None, low_memory=False)
    shards = [read_csv_shard(mixed_csv, r, world) for r in range(world)]
    assert sum(len(s) for s in shards) == len(serial)
    union = union_shards(shards)
    assert union.equals(serial)
    assert [union[c].dtype for c in union.columns] == [
        serial[c].dtype for c in serial.columns
    ]


def test_more_ranks_than_rows_pads_empty_shards(wide_csv):
    serial = read_csv(wide_csv, header=None, low_memory=False)
    world = len(serial) + 7  # guarantee some empty shards
    shards = [read_csv_shard(wide_csv, r, world) for r in range(world)]
    assert union_shards(shards).equals(serial)


def test_shardspec_validation():
    ShardSpec(rank=0, world_size=1)
    with pytest.raises(ValueError):
        ShardSpec(rank=0, world_size=0)
    with pytest.raises(ValueError):
        ShardSpec(rank=4, world_size=4)
    with pytest.raises(ValueError):
        ShardSpec(rank=-1, world_size=4)


def test_load_sharded_needs_rank_identity(mixed_csv):
    with pytest.raises(ValueError, match="shard|communicator"):
        load_sharded(mixed_csv, LoaderConfig(method="sharded"))


def test_load_sharded_without_allgather_returns_local_shard(mixed_csv):
    serial = read_csv(mixed_csv, header=None, low_memory=False)
    config = LoaderConfig(method="sharded").with_shard(1, 4, allgather=False)
    local = load_sharded(mixed_csv, config)
    assert 0 < len(local) < len(serial)


@pytest.mark.parametrize("world", [1, 4, 6])
def test_spmd_allgather_gives_every_rank_the_full_frame(mixed_csv, world):
    serial = read_csv(mixed_csv, header=None, low_memory=False)

    def rank_fn(comm):
        return load_sharded(mixed_csv, LoaderConfig(method="sharded"), comm=comm)

    frames = run_spmd(world, rank_fn)
    assert len(frames) == world
    for frame in frames:
        assert frame.equals(serial)


def test_hvd_load_sharded_records_timeline_events(mixed_csv):
    import repro.hvd as hvd

    serial = read_csv(mixed_csv, header=None, low_memory=False)

    tracer = Tracer()

    def rank_fn(comm):
        hvd.init(comm, tracer=tracer)
        try:
            return load_sharded(mixed_csv, LoaderConfig(method="sharded"), comm=comm)
        finally:
            hvd.shutdown()

    for frame in run_spmd(4, rank_fn):
        assert frame.equals(serial)
    for name in ("shard_parse", "shard_allgather"):
        spans = tracer.spans_named(name)
        assert sorted(s.rank for s in spans) == [0, 1, 2, 3]
        assert all(s.category == "io" for s in spans)
        assert all(0.0 <= s.start_s <= tracer.now() for s in spans)


def test_runner_accepts_sharded_load_method(tmp_path):
    nt3 = get_benchmark("nt3", scale=0.005, sample_scale=0.2)
    paths = nt3.write_files(tmp_path, rng=np.random.default_rng(3))
    plan = strong_scaling_plan(nt3.spec, 2, total_epochs=2)
    res = run_parallel_benchmark(
        nt3, plan, data_paths=paths, load_method="sharded", seed=1
    )
    assert res.phase_seconds()["load"] > 0
    assert len(res.history["loss"]) == 1


def test_traced_sharded_run_records_shard_spans_on_the_run_clock(tmp_path):
    """Shard spans share the run tracer's time base and reach its export."""
    nt3 = get_benchmark("nt3", scale=0.005, sample_scale=0.2)
    paths = nt3.write_files(tmp_path, rng=np.random.default_rng(3))
    plan = strong_scaling_plan(nt3.spec, 2, total_epochs=2)
    res = run_parallel_benchmark(
        nt3, plan, data_paths=paths, load_method="sharded", seed=1
    )
    tracer = res.tracer
    _, end = tracer.extent()
    shard_spans_ = tracer.spans_named("shard_parse", "shard_allgather")
    # one parse and one exchange per rank for each of the two files
    assert sorted((s.name, s.rank) for s in shard_spans_) == sorted(
        (name, rank)
        for name in ("shard_parse", "shard_allgather")
        for rank in (0, 1)
        for _ in paths
    )
    for s in shard_spans_:
        assert 0.0 <= s.start_s <= end
        load = next(p for p in tracer.spans_named("load") if p.rank == s.rank)
        assert load.start_s <= s.start_s and s.end_s <= load.end_s
    arts = export_run(tracer, tmp_path / "trace", prefix="sharded")
    events = json.loads(Path(arts.chrome_trace).read_text())["traceEvents"]
    exported = [e for e in events if e["name"] in ("shard_parse", "shard_allgather")]
    assert len(exported) == len(shard_spans_)
    assert all(0.0 <= e["ts"] <= end * 1e6 for e in exported)
