"""Differential suite: the block-backed ``DataFrame`` against the
column-dict frame it replaced.

The oracle is that frame's semantics kept here as plain functions over
``{name: 1-D array}`` dicts: selection, ``iloc``, ``drop``, ``astype``,
``isna``, ``fillna``, ``dropna``, ``equals``, ``to_numpy`` and
``concat`` (promotion per column, and the ``DtypeWarning``'s column
list). One deliberate difference: the oracle's ``isna`` of a zero-row
object column is bool, where the dict frame's was float64.

Frames come in every layout the block model has: one-column blocks (a
dict), columns placed anywhere in a few 2-D blocks (gaps, repeats,
reversals, unplaced block columns), parsed chunks and column-store
entries. Each case compares names, dtypes and ``tobytes()``; an object
column compares by the type and repr of each cell.

Tier-1 runs each Hypothesis property on 40 fixed-seed examples;
``--hypothesis-profile=deep`` runs 600 (profile in ``tests/conftest.py``).
"""

from __future__ import annotations

import json
import os
import warnings
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.frame.csv as csv_mod
from repro.frame import DataFrame, concat, mmap_base
from repro.frame.csv import DtypeWarning, _warn_mixed_dtypes
from repro.frame.dataframe import _conform
from repro.frame.dtypes import cast_to, dtype_of_array, promote
from repro.ingest import (
    INGEST_METHODS, ColumnStoreCache, DataSource, LoaderConfig, ShardSpec, shard_frame,
)

if settings.default is settings.get_profile("deep"):
    FUZZ = settings()
else:
    FUZZ = settings(max_examples=40, derandomize=True, deadline=None)

DTYPES = ("int64", "float64", "object")


# ---------------------------------------------------------------------------
# the oracle: the column-dict frame, as plain functions
# ---------------------------------------------------------------------------

def o_na(a):
    if a.dtype.kind == "f":
        return np.isnan(a)
    if a.dtype == object:
        return np.array([isinstance(v, float) and np.isnan(v) for v in a], dtype=bool)
    return np.zeros(len(a), dtype=bool)


def o_fillna(cols, value):
    out = {}
    for n, a in cols.items():
        if a.dtype.kind == "f":
            a = a.copy()
            a[np.isnan(a)] = value
        elif a.dtype == object:
            a = np.array([value if isinstance(v, float) and np.isnan(v) else v for v in a],
                         dtype=object)
        out[n] = a
    return out


def o_dropna(cols):
    if not cols:
        return {}
    keep = ~np.any(np.column_stack([o_na(a) for a in cols.values()]), axis=1)
    return {n: a[keep] for n, a in cols.items()}


def o_to_numpy(cols, dtype=None):
    arrays = list(cols.values())
    if not arrays:
        return np.empty((0, 0))
    if dtype is None:
        common = reduce(promote, (dtype_of_array(a) for a in arrays), "int64")
        arrays = [cast_to(a, common) for a in arrays]
    else:
        arrays = [a.astype(dtype, copy=False) for a in arrays]
    return np.column_stack(arrays)


def o_concat(parts):
    out = {}
    for name in parts[0]:
        pieces = [p[name] for p in parts]
        common = reduce(promote, (dtype_of_array(a) for a in pieces), "int64")
        out[name] = np.concatenate([cast_to(a, common) for a in pieces])
    return out


def o_mixed(parts):
    return [n for n in parts[0] if len({dtype_of_array(p[n]) for p in parts}) > 1]


def o_equals(a, b):
    def same(x, y):
        if x.dtype == object or y.dtype == object:
            return all(u == v or (isinstance(u, float) and isinstance(v, float)
                                  and np.isnan(u) and np.isnan(v)) for u, v in zip(x, y))
        return np.array_equal(x, y, equal_nan=True)
    return list(a) == list(b) and all(len(a[n]) == len(b[n]) and same(a[n], b[n]) for n in a)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def cells(a):
    return [(type(v).__name__, repr(v)) for v in a.ravel().tolist()]


def assert_array(got, want, case=""):
    assert got.dtype == want.dtype, case
    assert got.shape == want.shape, case
    if want.dtype == object:
        assert cells(got) == cells(want), case
    else:
        assert got.tobytes() == want.tobytes(), case


def assert_frame(frame, cols, case=""):
    assert frame.columns == list(cols), case
    assert frame.shape == ((len(next(iter(cols.values()))) if cols else 0), len(cols)), case
    for name, want in cols.items():
        assert_array(np.ascontiguousarray(frame[name]), np.ascontiguousarray(want),
                     f"{case}, column {name!r}")


# ---------------------------------------------------------------------------
# frames in every layout
# ---------------------------------------------------------------------------

def block_of(dtype, rows, width, rng):
    if dtype == "int64":
        return rng.integers(-50, 50, size=(rows, width))
    if dtype == "float64":
        block = rng.random((rows, width)) * 10.0
        block[rng.random((rows, width)) < 0.2] = np.nan
        return block
    pool = ["a", "bc", 3, -1, 2.5, float("nan")]
    block = np.empty((rows, width), dtype=object)
    for i in range(rows):
        for j in range(width):
            block[i, j] = pool[int(rng.integers(len(pool)))]
    return block


def build(column_dtypes, rows, rng, placed):
    """``(frame, oracle dict)`` with the given column dtypes: one-column
    blocks, or the columns scattered over one shuffled block per dtype
    with one unplaced column each."""
    names = [f"c{j}" for j in range(len(column_dtypes))]
    if not placed:
        cols = {n: block_of(d, rows, 1, rng)[:, 0] for n, d in zip(names, column_dtypes)}
        return DataFrame(cols), cols
    blocks, blkno, blkloc = [], [0] * len(names), [0] * len(names)
    for dtype in DTYPES:
        members = [j for j, d in enumerate(column_dtypes) if d == dtype]
        if not members:
            continue
        slots = rng.permutation(len(members) + 1)[: len(members)]  # one left unplaced
        for j, slot in zip(members, slots.tolist()):
            blkno[j], blkloc[j] = len(blocks), slot
        blocks.append(block_of(dtype, rows, len(members) + 1, rng))
    frame = DataFrame._from_blocks(names, blocks, blkno, blkloc, rows)
    return frame, {n: blocks[b][:, c] for n, b, c in zip(names, blkno, blkloc)}


@st.composite
def frames(draw, max_cols=6):
    column_dtypes = draw(st.lists(st.sampled_from(DTYPES), min_size=1, max_size=max_cols))
    rows = draw(st.integers(0, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return build(column_dtypes, rows, rng, draw(st.booleans()))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

@st.composite
def operations(draw, names, rows):
    """``(label, frame -> frame, dict -> dict)`` for one random operation."""
    kind = draw(st.sampled_from(["select", "iloc-slice", "iloc-index", "iloc-mask", "head",
                                 "drop", "astype", "isna", "fillna", "dropna", "setitem"]))
    if kind == "select":
        key = draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names) + 1))
        return kind, lambda f: f[key], lambda c: {k: c[k] for k in key}
    if kind == "iloc-slice":
        rows_ = slice(draw(st.none() | st.integers(-3, 9)), draw(st.none() | st.integers(-3, 9)),
                      draw(st.none() | st.sampled_from([1, 2, -1])))
    elif kind == "iloc-index":
        rows_ = np.array(draw(st.lists(st.integers(0, max(rows - 1, 0)), max_size=6)) if rows
                         else [], dtype=np.intp)
    elif kind == "iloc-mask":
        rows_ = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)), dtype=bool)
    if kind.startswith("iloc"):
        return kind, lambda f: f.iloc(rows_), lambda c: {n: a[rows_] for n, a in c.items()}
    if kind == "head":
        n = draw(st.integers(0, 9))
        return kind, lambda f: f.head(n), lambda c: {k: a[:n] for k, a in c.items()}
    if kind == "drop":
        gone = draw(st.lists(st.sampled_from(names), unique=True, max_size=len(names)))
        return kind, lambda f: f.drop(gone), lambda c: {k: a for k, a in c.items() if k not in gone}
    if kind == "astype":
        return kind, lambda f: f.astype(object), lambda c: {k: a.astype(object) for k, a in c.items()}
    if kind == "isna":
        return kind, lambda f: f.isna(), lambda c: {k: o_na(a) for k, a in c.items()}
    if kind == "fillna":
        return kind, lambda f: f.fillna(-7.5), lambda c: o_fillna(c, -7.5)
    if kind == "dropna":
        return kind, lambda f: f.dropna(), o_dropna
    name = draw(st.sampled_from([*names, "new"]))
    values = np.arange(rows, dtype=np.int64) * 3

    def set_frame(f):
        f[name] = values
        return f

    return kind, set_frame, lambda c: {**c, name: values}


def run_ops(data, frame, cols, steps=3):
    for _ in range(data.draw(st.integers(1, steps))):
        if not cols:
            break
        label, on_frame, on_cols = data.draw(
            operations(list(cols), len(next(iter(cols.values())))))
        frame, cols = on_frame(frame), on_cols(cols)
        assert_frame(frame, cols, label)
    return frame, cols


def numeric(cols):
    return all(a.dtype != object for a in cols.values())


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@FUZZ
@given(frames(), st.data())
def test_operations_match_the_column_dict_frame(built, data):
    frame, cols = built
    assert_frame(frame, cols, "construction")
    frame, cols = run_ops(data, frame, cols)
    for dtype in (None, object) + ((np.float64, bool) if numeric(cols) else ()):
        assert_array(frame.to_numpy(dtype), o_to_numpy(cols, dtype), f"to_numpy({dtype})")
    assert frame.dtypes == {n: dtype_of_array(a) for n, a in cols.items()}
    assert frame.memory_usage() == sum(a.nbytes for a in cols.values())


@FUZZ
@given(frames(), st.data())
def test_matrix_is_to_numpy_of_the_columns_in_the_dtype_asked(built, data):
    frame, cols = built
    names = list(cols)
    picked = data.draw(st.lists(st.sampled_from(range(len(names))), min_size=1, unique=True))
    dtypes = (object, np.float64) if numeric(cols) else (object,)
    dtype = np.dtype(data.draw(st.sampled_from(dtypes)))
    got = frame._matrix(np.array(picked), dtype)
    assert_array(np.ascontiguousarray(got), o_to_numpy({names[i]: cols[names[i]] for i in picked},
                                                       dtype))


def test_matrix_views_only_a_run_of_a_block_of_the_dtype_asked():
    ints, floats = np.arange(12).reshape(4, 3), np.arange(12.0).reshape(4, 3)
    frame = DataFrame._from_blocks(list(range(6)), [ints, floats], [0] * 3 + [1] * 3,
                                   [0, 1, 2] * 2, 4)
    run = np.array([1, 2])
    assert np.shares_memory(frame._matrix(run + 3, np.float64), floats)
    cast = frame._matrix(run, np.float64)
    assert cast.dtype == np.float64 and not np.shares_memory(cast, ints)
    assert np.array_equal(cast, ints[:, 1:])


@FUZZ
@given(frames(), st.data())
def test_equals_matches_the_column_dict_frame(built, data):
    frame, cols = built
    other, other_cols = data.draw(st.sampled_from(["same", "rebuilt", "filled", "other"])), None
    if other == "same":
        other, other_cols = frame, cols
    elif other == "rebuilt":  # the same columns as one-column blocks
        other_cols = {n: a.copy() for n, a in cols.items()}
        other = DataFrame(other_cols)
    elif other == "filled":
        other, other_cols = frame.fillna(0.0), o_fillna(cols, 0.0)
    else:
        other, other_cols = data.draw(frames())
    assert frame.equals(other) == o_equals(cols, other_cols)


@st.composite
def concat_inputs(draw):
    """2-4 frames over the same names: row slices of one frame (laid out
    alike), or frames built apart whose column dtypes agree or not."""
    ncols = draw(st.integers(1, 5))
    base = draw(st.lists(st.sampled_from(DTYPES), min_size=ncols, max_size=ncols))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    nframes = draw(st.integers(2, 4))
    if draw(st.booleans()):
        frame, cols = build(base, 12, rng, draw(st.booleans()))
        cuts = sorted(draw(st.lists(st.integers(0, 12), min_size=nframes - 1,
                                    max_size=nframes - 1)))
        edges = [0, *cuts, 12]
        return [(frame.iloc(slice(a, b)), {n: c[a:b] for n, c in cols.items()})
                for a, b in zip(edges, edges[1:])]
    mix = draw(st.booleans())
    out = []
    for _ in range(nframes):
        dtypes = [draw(st.sampled_from(DTYPES)) if mix else d for d in base]
        out.append(build(dtypes, draw(st.integers(0, 6)), rng, draw(st.booleans())))
    return out


@FUZZ
@given(concat_inputs())
def test_concat_matches_the_column_dict_frame(parts):
    got = concat([f for f, _ in parts])
    want = o_concat([c for _, c in parts])
    assert_frame(got, want, "concat")
    assert_array(got.to_numpy(), o_to_numpy(want), "concat, to_numpy")
    assert _conform([f for f, _ in parts]) == o_mixed([c for _, c in parts])


def test_concat_warns_for_exactly_the_mixed_columns():
    ints = DataFrame({"a": np.arange(3), "b": np.arange(3), "c": np.zeros(3)})
    floats = DataFrame({"a": np.arange(3.0), "b": np.arange(3), "c": np.ones(3)})
    with pytest.warns(DtypeWarning, match=r"\['a'\]"):
        _warn_mixed_dtypes(_conform([ints, floats]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _warn_mixed_dtypes(_conform([ints, ints.iloc(slice(1, None))]))
    got = concat([ints, floats])
    assert [got[n].dtype for n in got.columns] == [np.float64, np.int64, np.float64]


# ---------------------------------------------------------------------------
# the column store
# ---------------------------------------------------------------------------

def write_mixed_csv(path, rows=40):
    rng = np.random.default_rng(11)
    with open(path, "w") as fh:
        for i in range(rows):
            na = "NA" if i % 13 == 5 else f"{rng.random():.6g}"
            fh.write(f"{i % 3},{rng.random():.6g},{na},{rng.integers(-9, 9)},"
                     f"{rng.random() * 100:.6g}\n")
    return str(path)


@pytest.mark.parametrize("world", [1, 2, 3])
def test_shards_of_a_cache_frame_are_mapped_slices(tmp_path, world):
    path = write_mixed_csv(tmp_path / "data.csv")
    cache = ColumnStoreCache(tmp_path / "cache")
    parsed = DataSource(path).load(LoaderConfig(method="chunked")).frame
    cols = {n: parsed[n] for n in parsed.columns}
    for frame in (cache.store(path, parsed), cache.lookup(path)):
        bounds = np.linspace(0, len(parsed), world + 1).round().astype(int)
        shards = [shard_frame(frame, r, world) for r in range(world)]
        for shard in shards:
            assert shard.resident_nbytes() == 0
            assert all(mmap_base(shard[c]) is not None for c in shard.columns)
        got = concat(shards)
        assert_frame(got, cols, f"union of {world} shards")
        assert sum(len(s) for s in shards) == bounds[-1]


def write_v1_entry(cache, path, frame):
    """The entry a version-1 store wrote: per-dtype blocks sorted by dtype
    name, and a ``columns`` list with one entry per column."""
    entry = cache.entry_dir(path)
    os.makedirs(entry)
    groups = {}
    for name in frame.columns:
        groups.setdefault(str(frame[name].dtype), []).append(name)
    blocks, columns = [], []
    for b, (dtype, names) in enumerate(sorted(groups.items())):
        np.save(os.path.join(entry, f"block{b}.npy"), frame[names].to_numpy(dtype=dtype))
        blocks.append({"file": f"block{b}.npy", "dtype": dtype, "pickled": False})
        columns += [{"name": ["i", n], "block": b, "index": j} for j, n in enumerate(names)]
    meta = {"version": 1, "source": os.path.abspath(path), **cache.fingerprint(path),
            "nrows": len(frame), "column_order": [["i", n] for n in frame.columns],
            "columns": columns, "blocks": blocks}
    with open(os.path.join(entry, "meta.json"), "w") as fh:
        fh.write(json.dumps(meta))


def test_a_v1_entry_is_reparsed_once_then_hits(tmp_path):
    path = write_mixed_csv(tmp_path / "data.csv")
    config = LoaderConfig(method="cached", cache_dir=str(tmp_path / "cache"))
    chunked = DataSource(path).load(LoaderConfig(method="chunked")).frame
    write_v1_entry(ColumnStoreCache(config.cache_dir), path, chunked)
    first = DataSource(path).load(config)
    second = DataSource(path).load(config)
    assert (first.cache_hit, second.cache_hit) == (False, True)
    entry = ColumnStoreCache(config.cache_dir).entry_dir(path)
    meta = json.loads(Path(entry, "meta.json").read_text())
    assert meta["version"] == 2
    cols = {n: chunked[n] for n in chunked.columns}
    assert_frame(first.frame, cols, "re-parsed")
    assert_frame(second.frame, cols, "hit")


def test_every_ingest_method_returns_the_same_frame(tmp_path):
    path = write_mixed_csv(tmp_path / "data.csv", rows=300)
    want = DataSource(path).load(LoaderConfig(method="chunked")).frame
    cols = {n: want[n] for n in want.columns}
    # small spans and blocks so that each method concatenates several
    common = dict(num_workers=1, block_bytes=2048, chunksize=70, cache_dir=str(tmp_path / "c"))
    configs = {m: LoaderConfig(method=m, **common) for m in INGEST_METHODS}
    configs["original"] = LoaderConfig(method="original", low_memory=False, **common)
    configs["sharded"] = LoaderConfig(method="sharded", shard=ShardSpec(0, 1), **common)
    assert set(configs) == {"original", "chunked", "dask", "parallel", "cached", "sharded"}
    for method, config in configs.items():
        for attempt in range(2 if method == "cached" else 1):
            assert_frame(DataSource(path).load(config).frame, cols, f"{method} #{attempt}")


@pytest.mark.parametrize("chunksize", [10_000, 7], ids=["one-chunk", "several-chunks"])
def test_a_cold_store_of_chunks_that_disagree_equals_chunked(tmp_path, monkeypatch, chunksize):
    """Internal chunks a few rows long, whose columns turn float and
    object part way: the cold store gets them recast to one layout (one
    user chunk) or the concatenated frame (several), and both the entry
    and the warning match the ``chunked`` load."""
    monkeypatch.setattr(csv_mod, "LOW_MEMORY_CHUNK_BYTES", 40)
    path = tmp_path / "drift.csv"
    rows = [f"{i},{i % 4},{i if i < 9 else i + 0.5},{'x' if i == 13 else i}" for i in range(24)]
    path.write_text("\n".join(rows) + "\n")
    common = dict(low_memory=True, chunksize=chunksize, cache_dir=str(tmp_path / "c"))

    def load(method):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            frame = DataSource(path).load(LoaderConfig(method=method, **common)).frame
        return frame, sorted(str(w.message) for w in caught if w.category is DtypeWarning)

    want, want_warnings = load("chunked")
    assert want_warnings and [str(want[c].dtype) for c in want.columns] == [
        "int64", "int64", "float64", "object"]
    cols = {n: want[n] for n in want.columns}
    cold, cold_warnings = load("cached")
    assert cold_warnings == want_warnings
    assert_frame(cold, cols, "cold")
    assert_frame(load("cached")[0], cols, "warm")
