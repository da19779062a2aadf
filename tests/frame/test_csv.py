"""read_csv: both engines, chunked iteration, headers, edge cases."""

import io
import warnings

import numpy as np
import pytest

from repro.frame import CSVChunkIterator, DataFrame, concat, read_csv, write_csv
from repro.frame.csv import DtypeWarning
from repro.ingest import read_csv_parallel


def _write(tmp_path, matrix, name="f.csv", header=None):
    path = tmp_path / name
    write_csv(path, np.asarray(matrix), header=header)
    return str(path)


class TestBothEnginesAgree:
    @pytest.mark.parametrize("low_memory", [True, False])
    def test_numeric_roundtrip(self, tmp_path, rng, low_memory):
        m = rng.random((40, 6)) * 100
        path = _write(tmp_path, m)
        df = read_csv(path, header=None, low_memory=low_memory)
        assert df.shape == (40, 6)
        assert np.allclose(df.to_numpy(np.float64), m, rtol=1e-5)

    def test_engines_produce_identical_frames(self, tmp_path, rng):
        m = np.column_stack([rng.integers(0, 5, 30), rng.random((30, 4))])
        path = _write(tmp_path, m)
        slow = read_csv(path, header=None, low_memory=True)
        fast = read_csv(path, header=None, low_memory=False)
        assert slow.equals(fast)

    def test_integer_columns_narrowed_identically(self, tmp_path, rng):
        m = np.column_stack([rng.integers(0, 2, 25), rng.random((25, 2))])
        path = _write(tmp_path, m)
        for lm in (True, False):
            df = read_csv(path, header=None, low_memory=lm)
            assert df.dtypes[0] == "int64", f"low_memory={lm}"
            assert df.dtypes[1] == "float64"


class TestHeaders:
    def test_header_infer_detects_names(self, tmp_path, rng):
        path = _write(tmp_path, rng.random((10, 3)), header=["x", "y", "z"])
        df = read_csv(path)  # header='infer'
        assert df.columns == ["x", "y", "z"]
        assert len(df) == 10

    def test_header_infer_numeric_first_row_is_data(self, tmp_path, rng):
        path = _write(tmp_path, rng.random((10, 3)))
        df = read_csv(path)
        assert df.columns == [0, 1, 2]
        assert len(df) == 10

    def test_header_none_keeps_all_rows(self, tmp_path, rng):
        path = _write(tmp_path, rng.random((10, 3)))
        assert len(read_csv(path, header=None)) == 10

    def test_header_zero_consumes_first_row(self, tmp_path, rng):
        path = _write(tmp_path, rng.random((10, 3)), header=["a", "b", "c"])
        df = read_csv(path, header=0)
        assert df.columns == ["a", "b", "c"]

    def test_explicit_names(self, tmp_path, rng):
        path = _write(tmp_path, rng.random((5, 2)))
        df = read_csv(path, header=None, names=["p", "q"])
        assert df.columns == ["p", "q"]

    def test_bad_header_value(self, tmp_path, rng):
        path = _write(tmp_path, rng.random((5, 2)))
        with pytest.raises(ValueError, match="header"):
            read_csv(path, header="maybe")


class TestChunked:
    def test_chunks_cover_file_exactly(self, tmp_path, rng):
        m = rng.random((53, 4))
        path = _write(tmp_path, m)
        chunks = list(read_csv(path, header=None, chunksize=10, low_memory=False))
        assert [len(c) for c in chunks] == [10, 10, 10, 10, 10, 3]
        whole = concat(chunks)
        assert np.allclose(whole.to_numpy(np.float64), m, rtol=1e-5)

    def test_paper_loader_pattern(self, tmp_path, rng):
        """The exact §5 replacement code works against repro.frame."""
        m = rng.random((30, 5))
        path = _write(tmp_path, m)
        csize = 2000000
        chunks = []
        for chunk in read_csv(path, header=None, chunksize=csize, low_memory=False):
            chunks.append(chunk)
        df = concat(chunks, axis=0, ignore_index=True)
        assert df.shape == (30, 5)

    def test_iterator_is_context_manager(self, tmp_path, rng):
        path = _write(tmp_path, rng.random((10, 2)))
        with read_csv(path, header=None, chunksize=4) as it:
            assert isinstance(it, CSVChunkIterator)
            first = next(it)
            assert len(first) == 4

    def test_invalid_chunksize(self, tmp_path, rng):
        path = _write(tmp_path, rng.random((5, 2)))
        with pytest.raises(ValueError, match="chunksize"):
            read_csv(path, header=None, chunksize=0)

    @pytest.mark.parametrize("rows", [6, 7], ids=["whole-chunks", "short-last-chunk"])
    def test_handle_closed_after_full_iteration(self, tmp_path, rng, rows):
        path = _write(tmp_path, rng.random((rows, 2)))
        it = read_csv(path, header=None, chunksize=3)
        assert sum(len(c) for c in it) == rows
        assert it._fh.closed

    def test_handle_closed_after_abandoned_iteration(self, tmp_path, rng):
        path = _write(tmp_path, rng.random((9, 2)))
        with read_csv(path, header=None, chunksize=3) as it:
            next(it)
            assert not it._fh.closed
        assert it._fh.closed
        with pytest.raises(StopIteration):  # closed means finished, not broken
            next(it)

    def test_exhaustion_raises_stopiteration(self, tmp_path, rng):
        path = _write(tmp_path, rng.random((6, 2)))
        it = read_csv(path, header=None, chunksize=6)
        next(it)
        with pytest.raises(StopIteration):
            next(it)


class TestSubsetting:
    def test_nrows(self, tmp_path, rng):
        path = _write(tmp_path, rng.random((20, 3)))
        assert len(read_csv(path, header=None, nrows=7)) == 7

    def test_usecols(self, tmp_path, rng):
        path = _write(tmp_path, rng.random((5, 4)))
        df = read_csv(path, header=None, usecols=[1, 3])
        assert df.columns == [1, 3]


class TestEdgeCases:
    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_csv(str(path), header=None)

    def test_ragged_rows_raise(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(ValueError, match="ragged"):
            read_csv(str(path), header=None, low_memory=False)

    @pytest.mark.parametrize(
        "load",
        [
            lambda p: read_csv(p, header=None, low_memory=True),
            lambda p: read_csv(p, header=None, low_memory=False),
            lambda p: list(read_csv(p, header=None, chunksize=10, low_memory=False)),
            lambda p: list(read_csv(p, header=None, chunksize=10, low_memory=True)),
            lambda p: read_csv_parallel(p, num_workers=1),
        ],
        ids=["slow", "fast", "chunksize-fast", "chunksize-slow", "parallel-serial"],
    )
    @pytest.mark.parametrize(
        "text, bad_row",
        [
            ("1,2,3\n4\n5,6,7,8,9\n", 1),  # 9 cells in 3 rows: the total matches
            ("1,2,3\n4,5,6\n7,8\n9,10,11,12\n", 2),
            ("1,2,3\n4,5,NA\n7,8\n9,10,11,12\n", 2),  # same, on the token path
        ],
    )
    def test_ragged_rows_raise_even_when_the_cell_total_matches(
        self, tmp_path, load, text, bad_row
    ):
        """A short row must not borrow cells from the long row after it."""
        path = tmp_path / "ragged.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"ragged CSV chunk.* row {bad_row} "):
            load(str(path))

    def test_missing_values_to_nan_both_engines(self, tmp_path):
        path = tmp_path / "na.csv"
        path.write_text("1.5,2\nNA,4\n3.5,NA\n")
        for lm in (True, False):
            df = read_csv(str(path), header=None, low_memory=lm)
            col0 = df[0]
            assert np.isnan(col0[1])
            assert df.dtypes[0] == "float64"

    def test_string_columns_survive(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1,alpha\n2,beta\n")
        df = read_csv(str(path), header=None)
        assert df.dtypes[1] == "object"
        assert df[1][0] == "alpha"

    def test_file_object_input(self, rng):
        text = "1,2\n3,4\n"
        df = read_csv(io.StringIO(text), header=None)
        assert df.shape == (2, 2)

    def test_trailing_newline_tolerated(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2\n3,4\n\n")
        assert len(read_csv(str(path), header=None)) == 2

    def test_single_column_file(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("1\n2\n3\n")
        df = read_csv(str(path), header=None)
        assert df.shape == (3, 1)
