"""A frame named by a ``range``: what a cache hit of a ``header=None``
file builds, so that the hit makes no Python object per column.

A range-named frame must behave as its list-named twin: equal to it,
concatenable with it, laid out alike, a ``list`` from ``columns``, and
appendable. List input keeps the dict rule for duplicate names (first
position, last column). A Hypothesis round trip puts random name lists
(int runs, strings, mixed, duplicates) through ``store`` and ``lookup``.

Tier-1 runs each Hypothesis property on 40 fixed-seed examples;
``--hypothesis-profile=deep`` runs 600 (profile in ``tests/conftest.py``).
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frame import DataFrame, concat
from repro.frame.dataframe import _same_layout
from repro.ingest import ColumnStoreCache

if settings.default is settings.get_profile("deep"):
    FUZZ = settings()
else:
    FUZZ = settings(max_examples=40, derandomize=True, deadline=None)


def twins(width: int = 5, nrows: int = 4):
    """The same two blocks (int64 label, float64 features), named by a
    range and by the equal list."""
    labels = np.arange(nrows, dtype=np.int64)[:, None]
    feats = np.arange(nrows * (width - 1), dtype=np.float64).reshape(nrows, width - 1)
    blkno, blkloc = [0] + [1] * (width - 1), [0, *range(width - 1)]

    def build(names):
        return DataFrame._from_blocks(names, [labels, feats], blkno, blkloc, nrows)

    return build(range(width)), build(list(range(width)))


def test_range_named_frame_equals_its_list_named_twin():
    ranged, listed = twins()
    assert ranged.equals(listed) and listed.equals(ranged)
    assert _same_layout(ranged, listed) and _same_layout(listed, ranged)


@pytest.mark.parametrize("order", ["range first", "list first"])
def test_range_named_frame_concats_with_its_list_named_twin(order):
    ranged, listed = twins()
    frames = [ranged, listed] if order == "range first" else [listed, ranged]
    got = concat(frames)
    assert got.columns == list(range(5))
    assert np.array_equal(got.to_numpy(), np.concatenate([listed.to_numpy()] * 2))


def test_concat_still_refuses_other_names():
    ranged, _ = twins()
    shifted = DataFrame._from_blocks(range(1, 6), ranged._blocks, ranged._blkno,
                                     ranged._blkloc, len(ranged))
    with pytest.raises(ValueError, match="same columns"):
        concat([ranged, shifted])


def test_columns_is_a_list():
    ranged, _ = twins()
    assert type(ranged.columns) is list and ranged.columns == [0, 1, 2, 3, 4]
    assert type(ranged.iloc(slice(0, 2)).columns) is list


def test_setitem_appends_and_replaces_on_a_range_named_frame():
    ranged, listed = twins()
    for frame in (ranged, listed):
        frame[2] = np.zeros(4)
        frame["x"] = np.full(4, 7.0)
    assert ranged.columns == [0, 1, 2, 3, 4, "x"]
    assert ranged.equals(listed)
    assert np.array_equal(ranged["x"], np.full(4, 7.0)) and not ranged[2].any()


def test_list_input_keeps_first_position_last_column():
    block = np.arange(12.0).reshape(3, 4)
    frame = DataFrame._from_blocks([0, 1, 0, "a"], [block], [0] * 4, range(4), 3)
    assert frame.columns == [0, 1, "a"]
    assert np.array_equal(frame[0], block[:, 2])  # the last column named 0
    assert np.array_equal(frame["a"], block[:, 3])


def test_matrix_of_a_slice_is_the_matrix_of_its_positions():
    ranged, _ = twins(width=7)
    for cut in (slice(1, None), slice(0, 1), slice(2, 5), slice(0, None), slice(3, 3)):
        positions = np.arange(7)[cut]
        for dtype in (np.float64, np.int64, object):
            got, want = ranged._matrix(cut, np.dtype(dtype)), ranged._matrix(positions, dtype)
            assert got.dtype == want.dtype and got.shape == want.shape
            if got.dtype == object:  # cells are pointers: compare them as values
                assert got.tolist() == want.tolist()
                assert [type(v) for v in got.flat] == [type(v) for v in want.flat]
            else:
                assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
    label = ranged._matrix(slice(0, 1), np.float64)  # an int64 run, cast
    assert label.flags.c_contiguous and not np.shares_memory(label, ranged._blocks[0])
    assert label.tobytes() == ranged[[0]].to_numpy(np.float64).tobytes()


# ---------------------------------------------------------------------------
# store -> lookup keeps names and contents
# ---------------------------------------------------------------------------

int_runs = st.builds(lambda a, n: list(range(a, a + n)), st.integers(-5, 50), st.integers(0, 12))
some_ints = st.lists(st.integers(-3, 20), max_size=4)
some_strs = st.lists(st.text(max_size=3), max_size=3)
name_lists = st.lists(st.one_of(int_runs, some_ints, some_strs), max_size=4).map(
    lambda parts: [name for part in parts for name in part]
)


@FUZZ
@given(name_lists, st.integers(0, 3), st.data())
def test_store_then_lookup_keeps_columns_and_contents(names, nrows, data):
    floats = np.arange(nrows * len(names), dtype=np.float64).reshape(nrows, len(names)) / 3
    ints = -np.arange(nrows * len(names), dtype=np.int64).reshape(nrows, len(names))
    blkno = data.draw(st.lists(st.integers(0, 1), min_size=len(names), max_size=len(names)))
    frame = DataFrame._from_blocks(names, [floats, ints], blkno, range(len(names)), nrows)
    with tempfile.TemporaryDirectory() as tmp:
        source = os.path.join(tmp, "source.csv")
        with open(source, "w") as fh:
            fh.write("0\n")
        cache = ColumnStoreCache(os.path.join(tmp, "cache"))
        cache.store(source, frame)
        hit = cache.lookup(source)
        assert hit is not None
        assert hit.columns == frame.columns
        assert [type(n) for n in hit.columns] == [type(n) for n in frame.columns]
        assert hit.shape == frame.shape and hit.equals(frame)
        assert [hit[c].dtype for c in hit.columns] == [frame[c].dtype for c in frame.columns]
        if len(frame.columns):
            assert hit.to_numpy().tobytes() == frame.to_numpy().tobytes()
