"""Column-store cache: hit/miss, mtime and checksum invalidation."""

from __future__ import annotations

import os

import pytest

from repro.frame import read_csv
from repro.ingest import ColumnStoreCache, DataSource, LoaderConfig


@pytest.fixture()
def cache(tmp_path):
    return ColumnStoreCache(tmp_path / "cache")


@pytest.fixture()
def stored(cache, mixed_csv):
    frame = read_csv(mixed_csv, header=None, low_memory=False)
    cache.store(mixed_csv, frame)
    return frame


def test_first_lookup_is_a_miss(cache, mixed_csv):
    assert cache.lookup(mixed_csv) is None
    assert cache.stats.misses == 1
    assert cache.stats.hits == 0


def test_roundtrip_is_bit_identical(cache, mixed_csv, stored):
    hit = cache.lookup(mixed_csv)
    assert hit is not None
    assert cache.stats.hits == 1
    assert hit.equals(stored)
    assert [hit[c].dtype for c in hit.columns] == [
        stored[c].dtype for c in stored.columns
    ]


def test_roundtrip_preserves_integer_columns(cache, tmp_path):
    path = tmp_path / "ints.csv"
    path.write_text("1,2.5\n3,4.5\n")
    frame = read_csv(path, header=None, low_memory=False)
    assert str(frame[0].dtype) == "int64"
    cache.store(path, frame)
    hit = cache.lookup(path)
    assert str(hit[0].dtype) == "int64"
    assert str(hit[1].dtype) == "float64"


def test_mtime_change_invalidates(cache, mixed_csv, stored):
    st = os.stat(mixed_csv)
    os.utime(mixed_csv, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000))
    assert cache.lookup(mixed_csv) is None
    assert cache.stats.invalidations == 1
    # restoring the mtime restores the hit
    os.utime(mixed_csv, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert cache.lookup(mixed_csv) is not None


def test_checksum_catches_same_size_same_mtime_rewrite(cache, tmp_path):
    """A rewrite that preserves size *and* mtime must still invalidate."""
    path = tmp_path / "sneaky.csv"
    path.write_text("1,2,3\n4,5,6\n")
    frame = read_csv(path, header=None, low_memory=False)
    cache.store(path, frame)
    st = os.stat(path)
    with open(path, "r+b") as fh:
        fh.write(b"9,8,7\n")  # same byte count, different first line
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert os.stat(path).st_size == st.st_size
    assert os.stat(path).st_mtime_ns == st.st_mtime_ns
    assert cache.lookup(path) is None
    assert cache.stats.invalidations == 1


def test_corrupt_meta_invalidates(cache, mixed_csv, stored):
    meta = os.path.join(cache.entry_dir(mixed_csv), "meta.json")
    with open(meta, "w") as fh:
        fh.write("{not json")
    assert cache.lookup(mixed_csv) is None
    assert cache.stats.invalidations == 1


def test_missing_block_invalidates(cache, mixed_csv, stored):
    entry = cache.entry_dir(mixed_csv)
    for name in os.listdir(entry):
        if name.endswith(".npy"):
            os.remove(os.path.join(entry, name))
    assert cache.lookup(mixed_csv) is None
    assert cache.stats.invalidations == 1


def test_for_source_defaults_to_sibling_dir(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1,2\n")
    cache = ColumnStoreCache.for_source(path)
    assert cache.cache_dir == str(tmp_path / ".ingest-cache")


def test_datasource_cached_miss_then_hit(tmp_path, mixed_csv):
    config = LoaderConfig(method="cached", cache_dir=str(tmp_path / "c"))
    source = DataSource(mixed_csv)
    miss = source.load(config)
    assert miss.cache_hit is False
    hit = source.load(config)
    assert hit.cache_hit is True
    assert hit.frame.equals(miss.frame)
    serial = read_csv(mixed_csv, header=None, low_memory=False)
    assert hit.frame.equals(serial)
