"""Differential suite: ``DataFrame.to_numpy`` against ``np.column_stack``.

``to_numpy`` copies block by block: a block's columns are one 2-D slab
copy when their frame positions and their block indices are both
step-1 runs, else one gather. The oracle is the per-column casts
followed by ``np.column_stack``, kept here as a plain function. Each
case compares dtype, C-contiguity and ``tobytes()``; object cells that
a cast created are new objects on every call, so an object result
compares by the type and repr of each cell, and an all-object frame is
also held to its pointers.

Every case runs on two layouts of the same columns: built from a dict
(each column its own one-column block) and placed in the 2-D block
they are views of (gaps, repeats and reversals inside one block).

Tier-1 runs the Hypothesis property on 40 fixed-seed examples; locally,
``pytest tests/frame/test_to_numpy_differential.py
--hypothesis-profile=deep`` runs 600 (profile in ``tests/conftest.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frame import DataFrame, read_csv, write_csv
from repro.frame.dtypes import cast_to, dtype_of_array, promote
from repro.ingest import ColumnStoreCache, shard_frame

if settings.default is settings.get_profile("deep"):
    FUZZ = settings()
else:
    FUZZ = settings(max_examples=40, derandomize=True, deadline=None)

NCOLS = 6
ROWS = (0, 1, 2, 600)


# ---------------------------------------------------------------------------
# oracle and comparison
# ---------------------------------------------------------------------------

def column_stack_oracle(frame: DataFrame, dtype=None) -> np.ndarray:
    """``to_numpy`` as a plain function: cast every column, then column_stack."""
    cols = [frame[name] for name in frame.columns]
    if not cols:
        return np.empty((0, 0))
    if dtype is None:
        common = "int64"
        for a in cols:
            common = promote(common, dtype_of_array(a))
        cols = [cast_to(a, common) for a in cols]
    else:
        cols = [a.astype(dtype, copy=False) for a in cols]
    return np.column_stack(cols)


def cells(matrix: np.ndarray) -> list:
    return [[(type(v).__name__, repr(v)) for v in row] for row in matrix.tolist()]


def assert_same(got: np.ndarray, want: np.ndarray, case: str = "") -> None:
    assert got.dtype == want.dtype, case
    assert got.shape == want.shape, case
    assert got.flags.c_contiguous == want.flags.c_contiguous, case
    if want.dtype == object:
        assert cells(got) == cells(want), case
    else:
        assert got.tobytes() == want.tobytes(), case


def check(frame: DataFrame, dtypes, case: str) -> None:
    for dtype in dtypes:
        assert_same(frame.to_numpy(dtype=dtype), column_stack_oracle(frame, dtype),
                    f"{case}, dtype={dtype}")


@pytest.fixture(params=["threshold", "any-length"])
def placed(request) -> bool:
    """Each case on both layouts: "threshold" builds the frame from a
    dict, "any-length" places its columns in their source block. (The
    ids are those of the row-threshold fixture this one replaced, so
    every case keeps its name.)"""
    return request.param == "any-length"


# ---------------------------------------------------------------------------
# blocks and the frames taken off them
# ---------------------------------------------------------------------------

def _object_block(rng, rows):
    block = np.empty((rows, NCOLS), dtype=object)
    for i in range(rows):
        for j in range(NCOLS):
            block[i, j] = (f"s{i}.{j}", int(rng.integers(-5, 5)), float(rng.random()))[(i + j) % 3]
    return block


def make_block(layout: str, rows: int, tmp_path) -> np.ndarray:
    """A ``(rows, NCOLS)`` block in one of the layouts ``to_numpy`` meets."""
    rng = np.random.default_rng(rows + 7)
    if layout == "c-order":
        return rng.random((rows, NCOLS))
    if layout == "fortran":
        return np.asfortranarray(rng.random((rows, NCOLS)))
    if layout == "row-strided":
        return rng.random((2 * rows, NCOLS))[::2]
    if layout == "negative-rows":
        return rng.random((rows, NCOLS))[::-1]
    if layout == "negative-both":
        return rng.random((rows, NCOLS))[::-1, ::-1]
    if layout == "int64":
        return rng.integers(-(2**62), 2**62, size=(rows, NCOLS))
    if layout in ("memmap", "memmap-subclass"):
        path = tmp_path / f"{layout}-{rows}.npy"
        np.save(path, rng.random((rows, NCOLS)))
        mapped = np.load(path, mmap_mode="r")
        # the cache's view (a plain ndarray over the mapping) or the
        # np.memmap itself, whose column slices are memmaps too
        return np.asarray(mapped) if layout == "memmap" else mapped
    if layout == "object":
        return _object_block(rng, rows)
    raise ValueError(layout)


LAYOUTS = ("c-order", "fortran", "row-strided", "negative-rows", "negative-both",
           "int64", "memmap", "memmap-subclass", "object")


def frame_of(block, order, placed=False) -> DataFrame:
    """Columns ``order`` of ``block``, named by position (repeats
    allowed): one-column blocks, or placements in ``block`` itself."""
    if placed:
        n = len(order)
        return DataFrame._from_blocks(range(n), [block], np.zeros(n, dtype=np.intp),
                                      list(order), len(block))
    return DataFrame({i: block[:, j] for i, j in enumerate(order)})


def selections(block, rows, placed):
    """``(name, frame)`` for every way a frame's columns sit in a block."""
    ints = np.random.default_rng(rows).integers(-1000, 1000, size=(rows, 3))
    full = frame_of(block, range(NCOLS), placed)
    yield "all", full
    yield "gaps", frame_of(block, [0, 2, 3, 5], placed)
    yield "reversed", frame_of(block, range(NCOLS - 1, -1, -1), placed)
    yield "repeated", frame_of(block, [1, 1, 2, 3], placed)
    yield "one column", frame_of(block, [4], placed)
    yield "iloc rows 1:", full.iloc(slice(1, None))
    yield "iloc every 3rd row", full.iloc(slice(None, None, 3))
    yield "selected", full[[4, 1, 2]]
    for rank in range(3):
        yield f"shard {rank} of 3", shard_frame(full, rank, 3)
    # block columns 0-4 at frame positions 0, 1, 3, 4, 7; ints at 2, 5, 6
    mixed = DataFrame._from_blocks(
        range(8), [block, ints], [0, 0, 1, 0, 0, 1, 1, 0], [0, 1, 0, 2, 3, 1, 2, 4], rows,
    ) if placed else DataFrame({
        0: block[:, 0], 1: block[:, 1], 2: ints[:, 0], 3: block[:, 2],
        4: block[:, 3], 5: ints[:, 1], 6: ints[:, 2], 7: block[:, 4],
    })
    yield "mixed with int64", mixed


def dtypes_for(block):
    return (None, object) if block.dtype == object else (None, np.float64, object)


# ---------------------------------------------------------------------------
# the corpus
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_to_numpy_matches_column_stack(layout, rows, tmp_path, placed):
    block = make_block(layout, rows, tmp_path)
    for name, frame in selections(block, rows, placed):
        check(frame, dtypes_for(block), f"{layout}, {rows} rows, {name}")


@pytest.mark.parametrize("rows", ROWS)
def test_cache_entry_frames_match_column_stack(rows, tmp_path, placed):
    """The store writes a parsed frame's blocks as they are ("any-length")
    and regroups a dict-built frame's one-column blocks ("threshold")."""
    rng = np.random.default_rng(5)
    matrix = np.column_stack([
        rng.integers(0, 3, size=rows).astype(np.float64),
        rng.random((rows, 8)) * 100.0,
        rng.integers(-9, 9, size=(rows, 2)).astype(np.float64),
    ])
    path = tmp_path / "data.csv"
    write_csv(path, matrix)
    parsed = read_csv(path, header=None, low_memory=False) if rows else DataFrame(
        {j: np.empty(0) for j in range(matrix.shape[1])}
    )
    if not placed:
        parsed = DataFrame({c: parsed[c] for c in parsed.columns})
    cache = ColumnStoreCache(tmp_path / "cache")
    cold = cache.store(path, parsed)
    warm = cache.lookup(path)
    for name, frame in (("parsed", parsed), ("cold", cold), ("warm", warm)):
        check(frame, (None, np.float64), f"{rows} rows, {name}")
        check(frame[[2, 0, 5, 6, 7]], (None, np.float64), f"{rows} rows, {name} subset")
        check(frame.iloc(slice(1, None)), (None,), f"{rows} rows, {name} iloc")


def test_all_object_frame_copies_the_same_pointers(placed):
    block = _object_block(np.random.default_rng(1), 600)
    frame = frame_of(block, range(NCOLS), placed)
    got, want = frame.to_numpy(), column_stack_oracle(frame)
    assert got.dtype == want.dtype == object
    assert got.tobytes() == want.tobytes()


def test_empty_frame():
    assert_same(DataFrame().to_numpy(), np.empty((0, 0)))


# ---------------------------------------------------------------------------
# how each block is copied
# ---------------------------------------------------------------------------

def copies(frame):
    """Per block, the frame positions and block indices ``to_numpy``
    copies: ``(start, stop)`` for a step-1 run, a list for a gather."""
    def norm(ix):
        return (ix.start, ix.stop) if isinstance(ix, slice) else ix.tolist()
    return [(norm(pos), norm(locs)) for _, pos, locs in frame._groups()]


def test_columns_of_one_block_are_one_run():
    block = np.random.default_rng(0).random((600, NCOLS))
    whole = [((0, NCOLS), (0, NCOLS))]
    assert copies(frame_of(block, range(NCOLS), placed=True)) == whole
    assert copies(frame_of(block[::-1], range(NCOLS), placed=True)) == whole
    assert copies(frame_of(block, range(NCOLS), placed=True).iloc(slice(10, 590))) == whole
    assert copies(DataFrame.from_matrix(block)) == whole
    # a dict keeps each array as a one-column block of its own
    assert copies(frame_of(block, range(NCOLS))) == [((j, j + 1), (0, 1)) for j in range(NCOLS)]


def test_runs_break_where_the_block_does():
    block = np.random.default_rng(0).random((600, NCOLS))
    assert copies(frame_of(block, [0, 2, 3, 5], placed=True)) == [((0, 4), [0, 2, 3, 5])]
    assert copies(frame_of(block, [1, 1, 2, 3], placed=True)) == [((0, 4), [1, 1, 2, 3])]
    assert copies(frame_of(block, [3, 4, 5], placed=True)) == [((0, 3), (3, 6))]
    full = frame_of(block, range(NCOLS), placed=True)
    assert copies(full[[5, 0, 1]]) == [((0, 3), [5, 0, 1])]
    assert copies(full.drop([2])) == [((0, 5), [0, 1, 3, 4, 5])]
    # a column set into a frame becomes a block of its own
    full[2] = np.ones(600)
    assert copies(full) == [([0, 1, 3, 4, 5], [0, 1, 3, 4, 5]), ((2, 3), (0, 1))]
    check(full, (None,), "a replaced column")


def test_a_parsed_chunk_and_a_cache_entry_are_one_run_each(tmp_path):
    rng = np.random.default_rng(2)
    matrix = np.column_stack([rng.integers(0, 2, size=600).astype(np.float64),
                              rng.random((600, 40))])
    path = tmp_path / "wide.csv"
    write_csv(path, matrix)
    parsed = read_csv(path, header=None, low_memory=False)
    assert str(parsed[0].dtype) == "int64"
    # the parsed float64 matrix is the float block, the int64 label's
    # slot in it unplaced; the label is a one-column int64 block
    assert copies(parsed) == [((1, 41), (1, 41)), ((0, 1), (0, 1))]
    assert copies(parsed[list(range(1, 41))]) == [((0, 40), (1, 41))]
    cache = ColumnStoreCache(tmp_path / "cache")
    for frame in (cache.store(path, parsed), cache.lookup(path)):
        assert copies(frame) == [((1, 41), (0, 40)), ((0, 1), (0, 1))]
        check(frame, (None, np.float64), "cache entry")


# ---------------------------------------------------------------------------
# Hypothesis: random blocks, random column picks
# ---------------------------------------------------------------------------

@st.composite
def picked_frames(draw):
    rows = draw(st.integers(0, 12))
    ncols = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        base = rng.integers(-100, 100, size=(2 * rows, ncols))
    else:
        base = rng.random((2 * rows, ncols))
    views = [  # all but the Fortran copy are views of one buffer
        base[:rows],
        np.asfortranarray(base[:rows]),
        base[::2],
        base[:rows][::-1],
    ]
    # columns in segments (a view, a first column or "carry on from the
    # last segment", a length, a direction): runs, gaps, repeats, and two
    # views meeting at adjacent pointers with different strides
    segments = draw(st.lists(
        st.tuples(st.integers(0, len(views) - 1), st.none() | st.integers(0, ncols - 1),
                  st.integers(1, ncols), st.sampled_from([1, -1])),
        min_size=1, max_size=4,
    ))
    blkno, blkloc, j = [], [], 0
    for view, start, length, step in segments:
        j = j + step if start is None else start
        for _ in range(length):
            blkno.append(view)
            blkloc.append(j % ncols)
            j += step
        j -= step
    if draw(st.booleans()):  # placed in the views, as blocks
        frame = DataFrame._from_blocks(range(len(blkno)), views, blkno, blkloc, rows)
    else:  # one-column blocks
        frame = DataFrame({i: views[b][:, c] for i, (b, c) in enumerate(zip(blkno, blkloc))})
    if draw(st.booleans()):  # some columns from a second, int64 block
        other = rng.integers(-10, 10, size=(rows, 3))
        for name in draw(st.lists(st.integers(0, len(blkno) - 1), max_size=3, unique=True)):
            frame[name] = other[:, name % 3]
    if rows and draw(st.booleans()):
        start = draw(st.integers(0, rows - 1))
        frame = frame.iloc(slice(start, None, draw(st.integers(1, 3))))
    return frame


@FUZZ
@given(picked_frames(), st.sampled_from([None, np.float64]))
def test_random_picks_match_column_stack(frame, dtype):
    assert_same(frame.to_numpy(dtype=dtype), column_stack_oracle(frame, dtype))
