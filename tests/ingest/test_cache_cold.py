"""The cold ``cached`` load: one parse, one write, no re-read.

A miss fingerprints the source before its text is read, parses it with
the ``chunked`` engine and no pool (serially in this process, or, for a
file of at least ``split.MIN_BYTES``, on two cores with one forked
child: ``test_split_parse.py``), and gets the entry's memory-mapped
frame back from ``store`` — read with the meta it just wrote. The files
here are below that size, so these loads parse serially. Writers racing
on one file (SPMD ranks cold-loading it at once) all end with a frame
equal to ``chunked``'s.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import repro.ingest.cache as cache_mod
import repro.ingest.parallel as parallel_mod
import repro.ingest.source as source_mod
from repro.frame import mmap_base
from repro.ingest import ColumnStoreCache, DataSource, LoaderConfig


def chunked(path):
    return DataSource(path).load(LoaderConfig(method="chunked")).frame


def cached(path, cache_dir):
    return DataSource(path).load(LoaderConfig(method="cached", cache_dir=str(cache_dir)))


@pytest.fixture(scope="module")
def object_csv(tmp_path_factory):
    """Int, float and string columns: the string column is an object
    column, which the store writes as a pickled block."""
    rng = np.random.default_rng(3)
    path = tmp_path_factory.mktemp("ingest") / "objects.csv"
    with open(path, "w") as fh:
        for i in range(120):
            fh.write(f"{i % 4},{rng.random():.6g},tag{i % 7},{rng.integers(-50, 50)}\n")
    return str(path)


def assert_columns_equal(got, want):
    assert got.columns == want.columns
    for name in want.columns:
        a, b = got[name], want[name]
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


# -- the cold path -----------------------------------------------------------

def test_cold_load_starts_no_pool(tmp_path, mixed_csv, monkeypatch):
    """The miss parses with the ``chunked`` engine, not the ``parallel``
    pool; its one helper, where the file is large enough, is a forked
    child that hands nothing back (``test_split_parse.py``)."""

    def no_pool(*args, **kwargs):
        raise AssertionError("a cold cached load started a worker pool")

    monkeypatch.setattr(parallel_mod, "_make_pool", no_pool)
    # small blocks and two workers: a pool-backed parse would split the
    # file into several spans and start one
    config = LoaderConfig(
        method="cached", cache_dir=str(tmp_path / "c"), block_bytes=4096, num_workers=2
    )
    result = DataSource(mixed_csv).load(config)
    assert result.cache_hit is False
    assert result.frame.equals(chunked(mixed_csv))


def test_cold_load_is_mapped_and_equal_to_chunked(tmp_path, mixed_csv):
    result = cached(mixed_csv, tmp_path / "c")
    assert result.cache_hit is False
    assert result.frame.resident_nbytes() == 0
    assert all(mmap_base(result.frame[c]) is not None for c in result.frame.columns)
    assert_columns_equal(result.frame, chunked(mixed_csv))


def test_cold_load_of_object_columns_equals_chunked(tmp_path, object_csv):
    want = chunked(object_csv)
    assert {str(want[c].dtype) for c in want.columns} == {"int64", "float64", "object"}
    cold = cached(object_csv, tmp_path / "c")
    warm = cached(object_csv, tmp_path / "c")
    assert (cold.cache_hit, warm.cache_hit) == (False, True)
    assert_columns_equal(cold.frame, want)
    assert cold.frame.equals(want) and warm.frame.equals(cold.frame)


@pytest.mark.parametrize("fixture", ["mixed_csv", "wide_csv"])
def test_cold_then_warm_frames_are_equal(tmp_path, fixture, request):
    path = request.getfixturevalue(fixture)
    cold = cached(path, tmp_path / "c")
    warm = cached(path, tmp_path / "c")
    assert (cold.cache_hit, warm.cache_hit) == (False, True)
    assert cold.frame.equals(warm.frame)
    assert np.array_equal(cold.frame.to_numpy(), warm.frame.to_numpy())


def test_cold_load_reads_back_without_a_second_lookup(tmp_path, mixed_csv, monkeypatch):
    """One lookup (the miss) and one fingerprint (before the parse): the
    store reads its entry back with the meta it wrote."""
    calls = {"lookup": 0, "fingerprint": 0, "meta_reads": 0}
    lookup, fingerprint, json_load = (
        ColumnStoreCache.lookup, ColumnStoreCache.fingerprint, cache_mod.json.load,
    )

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ColumnStoreCache, "lookup", counting("lookup", lookup))
    monkeypatch.setattr(
        ColumnStoreCache, "fingerprint", staticmethod(counting("fingerprint", fingerprint))
    )
    monkeypatch.setattr(cache_mod.json, "load", counting("meta_reads", json_load))
    result = cached(mixed_csv, tmp_path / "c")
    assert result.cache_hit is False
    assert calls == {"lookup": 1, "fingerprint": 1, "meta_reads": 0}
    assert result.frame.resident_nbytes() == 0


def test_shard_of_a_cold_load_is_a_view(tmp_path, mixed_csv):
    from repro.ingest import ShardSpec, shard_row_slice

    config = LoaderConfig(
        method="cached", cache_dir=str(tmp_path / "c"),
        shard=ShardSpec(rank=1, world_size=3, allgather=False),
    )
    result = DataSource(mixed_csv).load(config)
    full = chunked(mixed_csv)
    assert result.cache_hit is False
    assert result.frame.resident_nbytes() == 0
    assert result.frame.equals(full.iloc(shard_row_slice(len(full), 1, 3)))


# -- the fingerprint is the one taken before the parse -----------------------

def test_source_rewritten_during_the_parse_is_stale_next_time(tmp_path, mixed_csv, monkeypatch):
    path = tmp_path / "moving.csv"
    shutil.copyfile(mixed_csv, path)
    parse = source_mod._parse_pieces

    def parse_then_touch(p, config):
        parsed = parse(p, config)
        st = os.stat(p)  # a writer lands while the text is being parsed
        os.utime(p, ns=(st.st_atime_ns, st.st_mtime_ns + 5_000_000_000))
        return parsed

    monkeypatch.setattr(source_mod, "_parse_pieces", parse_then_touch)
    assert cached(path, tmp_path / "c").cache_hit is False
    monkeypatch.setattr(source_mod, "_parse_pieces", parse)
    cache = ColumnStoreCache(tmp_path / "c")
    assert cache.lookup(path) is None
    assert (cache.stats.hits, cache.stats.invalidations) == (0, 1)


def test_store_without_a_fingerprint_takes_it_now(tmp_path, mixed_csv):
    cache = ColumnStoreCache(tmp_path / "c")
    frame = chunked(mixed_csv)
    stored = cache.store(mixed_csv, frame)
    assert stored.equals(frame) and stored.resident_nbytes() == 0
    assert cache.lookup(mixed_csv) is not None


# -- writers racing on one file ----------------------------------------------

def race(n_threads, job, collide=False):
    """Run ``job()`` on ``n_threads`` threads released by one barrier,
    switching threads every microsecond so that they interleave between
    file operations; returns ``(results, errors)``.

    With ``collide``, each racing thread is also held at its first rename
    (``os.rename`` or ``os.replace``) until all of them stand there: every
    one has missed, parsed and written its temp dir, and they install at
    once. A store that checks for an entry and then renames fails this
    schedule every time with ``OSError: [Errno 39] Directory not empty``.
    Renames made by any other thread in the process pass straight through.
    """
    start = threading.Barrier(n_threads)
    at_rename = threading.Barrier(n_threads, timeout=30)
    results, errors, held = [], [], set()

    def run():
        start.wait()
        try:
            results.append(job())
        except BaseException as exc:  # noqa: BLE001 - reported by the test
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(n_threads)]

    def first_waits(real):
        def rename(src, dst):
            me = threading.current_thread()
            if me in threads and me not in held:
                held.add(me)
                at_rename.wait()
            return real(src, dst)
        return rename

    interval = sys.getswitchinterval()
    with contextlib.ExitStack() as stack:
        if collide:
            stack.enter_context(mock.patch.object(os, "rename", first_waits(os.rename)))
            stack.enter_context(mock.patch.object(os, "replace", first_waits(os.replace)))
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "a writer hung"
    return results, errors


@pytest.mark.parametrize("collide", [True, False], ids=["renames-collide", "free-running"])
def test_concurrent_cold_loads_all_succeed(tmp_path, mixed_csv, collide):
    want = chunked(mixed_csv)
    failures = []
    for trial in range(50):
        cache_dir = tmp_path / f"c{trial}"
        results, errors = race(2, lambda: cached(mixed_csv, cache_dir), collide)
        failures.extend(errors)
        assert len(results) + len(errors) == 2
        assert all(result.frame.equals(want) for result in results)
        if collide:  # both missed: neither could install before the other parsed
            assert all(result.cache_hit is False for result in results)
        assert not list(cache_dir.glob(".tmp-*"))
        assert cached(mixed_csv, cache_dir).cache_hit is True
    assert failures == []


def test_concurrent_stores_over_a_stale_entry(tmp_path, mixed_csv):
    """Every writer finds a stale entry in the way: one moves it aside
    and installs its own, the others serve the installed entry or their
    own frame, and the stale one is gone afterwards."""
    frame = chunked(mixed_csv)
    stale = dict(ColumnStoreCache.fingerprint(mixed_csv), mtime_ns=1)
    fresh = ColumnStoreCache.fingerprint(mixed_csv)
    for trial in range(20):
        cache = ColumnStoreCache(tmp_path / f"c{trial}")
        cache.store(mixed_csv, frame, stale)
        assert cache.lookup(mixed_csv) is None
        results, errors = race(3, lambda: cache.store(mixed_csv, frame, fresh), collide=True)
        assert errors == []
        assert len(results) == 3 and all(r.equals(frame) for r in results)
        assert ColumnStoreCache(cache.cache_dir).lookup(mixed_csv) is not None
        assert os.listdir(cache.cache_dir) == [os.path.basename(cache.entry_dir(mixed_csv))]


def test_a_writer_that_loses_the_rename_returns_the_installed_entry(tmp_path, mixed_csv):
    cache = ColumnStoreCache(tmp_path / "c")
    frame = chunked(mixed_csv)
    first = cache.store(mixed_csv, frame)
    second = cache.store(mixed_csv, frame)  # the entry exists and validates
    assert first.equals(second) and second.resident_nbytes() == 0
    assert sorted(os.listdir(cache.cache_dir)) == [os.path.basename(cache.entry_dir(mixed_csv))]


def test_format_2_layout(tmp_path, csv_file):
    """A ``meta.json`` plus one C-order ``.npy`` block per dtype; each
    block is described by its dtype, shape, data offset and the
    frame-position spans of its columns, and the names by runs."""
    path, _ = csv_file
    frame = chunked(path)
    cache = ColumnStoreCache(tmp_path / "c")
    cache.store(path, frame)
    entry = cache.entry_dir(path)
    assert sorted(os.listdir(entry)) == ["block0.npy", "block1.npy", "meta.json"]
    meta = json.loads(Path(entry, "meta.json").read_text())
    assert meta["version"] == 2 and meta["nrows"] == len(frame)
    assert meta["names"] == [["r", 0, len(frame.columns)]]
    n = len(frame)
    assert [(b["file"], b["dtype"], b["shape"], b["pickled"], b["spans"])
            for b in meta["blocks"]] == [
        ("block0.npy", "<f8", [n, len(frame.columns) - 1], False, [[1, len(frame.columns)]]),
        ("block1.npy", "<i8", [n, 1], False, [[0, 1]]),
    ]
    floats = np.load(os.path.join(entry, "block0.npy"))
    assert floats.flags.c_contiguous
    assert floats.tobytes() == np.column_stack([frame[c] for c in frame.columns[1:]]).tobytes()
    ints = np.load(os.path.join(entry, "block1.npy"))
    assert ints.shape == (len(frame), 1) and np.array_equal(ints[:, 0], frame[0])


@pytest.mark.parametrize("fixture", ["mixed_csv", "wide_csv", "object_csv"])
def test_recorded_offsets_are_the_npy_headers(tmp_path, fixture, request):
    """Each numeric block's recorded offset is where ``np.lib.format``
    finds its data; an object block is read by ``np.load`` instead."""
    path = request.getfixturevalue(fixture)
    cached(path, tmp_path / "c")
    entry = ColumnStoreCache(tmp_path / "c").entry_dir(path)
    meta = json.loads(Path(entry, "meta.json").read_text())
    for block in meta["blocks"]:
        with open(os.path.join(entry, block["file"]), "rb") as fh:
            read_header = {
                (1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0,
            }[np.lib.format.read_magic(fh)]
            shape, fortran, dtype = read_header(fh)
            assert (list(shape), fortran, dtype.str) == (block["shape"], False, block["dtype"])
            assert block["offset"] == (None if block["pickled"] else fh.tell())


def test_a_block_of_the_wrong_size_is_reparsed(tmp_path, mixed_csv):
    cold = cached(mixed_csv, tmp_path / "c")
    entry = ColumnStoreCache(tmp_path / "c").entry_dir(mixed_csv)
    with open(os.path.join(entry, "block0.npy"), "ab") as fh:
        fh.write(b"\0" * 8)  # offset + nbytes no longer the file size
    again = cached(mixed_csv, tmp_path / "c")
    assert again.cache_hit is False and again.frame.equals(cold.frame)
    assert cached(mixed_csv, tmp_path / "c").cache_hit is True


def test_numeric_blocks_open_without_np_load(tmp_path, mixed_csv, monkeypatch):
    cached(mixed_csv, tmp_path / "c")

    def no_load(*args, **kwargs):
        raise AssertionError("a numeric block went through np.load")

    monkeypatch.setattr(cache_mod.np, "load", no_load)
    warm = cached(mixed_csv, tmp_path / "c")
    assert warm.cache_hit is True and warm.frame.equals(chunked(mixed_csv))
