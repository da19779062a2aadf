"""The two-core cold parse's cases, each run in a fresh interpreter.

``python -m tests.ingest.split_cases <case> [path]`` runs one case and
exits 0 when it holds. ``test_split_parse.py`` starts them with the BLAS
thread counts at 1, so that the process has one OS thread, which the
split requires before it forks (a pytest process that has started
BLAS's pool or the conv helper has more). ``main`` sets the size
threshold to 0, assumes two cores and counts every fork, so every load
below may split.
"""

from __future__ import annotations

import os
import sys
import tempfile
import threading
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frame import csv as csv_mod
from repro.frame.csv import DtypeWarning
from repro.ingest import DataSource, LoaderConfig, source, split

#: pids the split forked (the parent side of every ``os.fork``)
FORKS: list = []

CACHED = LoaderConfig(method="cached")


def recorded(parse, *args):
    """``parse(*args)`` with the DtypeWarning texts it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DtypeWarning)
        out = parse(*args)
    return out, [str(w.message) for w in caught if w.category is DtypeWarning]


def assert_same_parse(got, want):
    """Pieces, per-column dtypes and bytes, stats and warnings agree."""
    (pieces, stats), warned = got
    (want_pieces, want_stats), want_warned = want
    assert warned == want_warned, (warned, want_warned)
    assert stats.as_dict() == want_stats.as_dict(), (stats, want_stats)
    assert [len(p) for p in pieces] == [len(p) for p in want_pieces]
    for piece, expect in zip(pieces, want_pieces):
        assert piece.columns == expect.columns
        for name in expect.columns:
            a, b = piece[name], expect[name]
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def assert_no_children():
    try:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return
    raise AssertionError("the split left a child process")


def row_starts(path) -> list:
    """Byte offset of every line start after the first."""
    with open(path, "rb") as fh:
        lengths = [len(line) for line in fh]
    return np.cumsum(lengths)[:-1].tolist()


def split_equals_serial(path, cut, want=None):
    got = recorded(split.parse_pieces_split, path, CACHED, cut)
    assert got[0] is not None, f"the split at byte {cut} fell back"
    assert_same_parse(got, want or recorded(source._parse_pieces, path, CACHED))


def case_every_cut(path):
    """A cut at every row, in 40-row chunks: the straddling chunk is
    every mix of the parent's tail and the child's head."""
    with open(path) as fh:
        csv_mod.FAST_CHUNK_BYTES = 40 * len(fh.readline())
    want = recorded(source._parse_pieces, path, CACHED)
    assert len(want[0][0]) > 2
    cuts = row_starts(path)
    for cut in cuts:
        split_equals_serial(path, cut, want)
    assert len(FORKS) == len(cuts)
    assert_no_children()


def _column(draw, nrows):
    kind = draw(st.sampled_from(["int", "float", "int_then_float", "float_then_int"]))
    ints = draw(st.lists(st.integers(-99, 99), min_size=nrows, max_size=nrows))
    if kind == "int":
        return [str(v) for v in ints]
    floats = [repr(v + 0.5) for v in ints]
    if kind == "float":
        return floats
    at = draw(st.integers(0, nrows))
    head, tail = ([str(v) for v in ints], floats) if kind == "int_then_float" else (
        floats, [str(v) for v in ints])
    return head[:at] + tail[at:]


@st.composite
def files(draw):
    """Rows of int/float columns, CRLF or LF line ends, blank lines
    between rows, a last line with or without its newline; a cut at any
    line start and a chunk size in rows."""
    nrows, ncols = draw(st.integers(2, 40)), draw(st.integers(1, 5))
    columns = [_column(draw, nrows) for _ in range(ncols)]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    blank = draw(st.sets(st.integers(1, nrows - 1), max_size=3))
    lines = []
    for i, row in enumerate(zip(*columns)):
        lines += [""] * (i in blank) + [",".join(row)]
    text = newline.join(lines) + newline * draw(st.booleans())
    cut_line = draw(st.integers(1, len(lines) - 1))
    return text, len(lines[0]), cut_line, draw(st.integers(1, 12))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(files())
def check_any_file_cut_and_chunk(case):
    """Columns that change from int to float (and back) between chunks:
    the split gives the serial parse's pieces and DtypeWarning."""
    text, width, cut_line, rows_per_chunk = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.csv")
        with open(path, "wb") as fh:
            fh.write(text.encode())
        csv_mod.FAST_CHUNK_BYTES = rows_per_chunk * (width + 1)
        split_equals_serial(path, row_starts(path)[cut_line - 1])


def case_property(path):
    check_any_file_cut_and_chunk()
    assert FORKS
    assert_no_children()


def _edited(path, row, text) -> str:
    with open(path) as fh:
        lines = fh.read().splitlines()
    lines[row] = text(lines[row])
    out = os.path.join(tempfile.gettempdir(), "edited.csv")
    with open(out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return out


def loaded(path, method):
    with tempfile.TemporaryDirectory() as cache_dir:
        config = LoaderConfig(method=method, cache_dir=cache_dir)
        return DataSource(path).load(config).frame.to_numpy()


def case_na_in_child_half(path):
    """The child refuses the chunk holding the NA: serial parse, equal
    to ``chunked``."""
    nrows = len(row_starts(path)) + 1
    edited = _edited(path, nrows - 2, lambda line: "NA" + line[line.index(","):])
    got = loaded(edited, "cached")
    assert FORKS, "no split was tried"
    want = loaded(edited, "chunked")
    assert np.isnan(got[nrows - 2, 0])
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert_no_children()


def case_ragged_in_parent_half(path):
    """The parent refuses the ragged chunk: the serial parse raises
    ``chunked``'s error, and the child is reaped."""
    edited = _edited(path, 1, lambda line: line + ",7")
    errors = []
    for method in ("cached", "chunked"):
        try:
            loaded(edited, method)
        except ValueError as exc:
            errors.append(str(exc))
    assert FORKS, "no split was tried"
    assert len(errors) == 2 and errors[0] == errors[1], errors
    assert "ragged" in errors[0]
    assert_no_children()


def case_child_dies(path):
    """A child that exits non-zero, or a fork the system refuses: the
    serial parse, equal to ``chunked``."""
    def fail(*args):
        raise RuntimeError("the child fails")

    split._cast_span = fail
    assert split.parse_pieces_split(path, CACHED) is None
    got = loaded(path, "cached")
    assert len(FORKS) == 2
    want = loaded(path, "chunked").tobytes()
    assert got.tobytes() == want
    assert_no_children()

    def refused():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    os.fork = refused
    assert loaded(path, "cached").tobytes() == want


def case_second_thread_means_no_fork(path):
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        got = loaded(path, "cached")
    finally:
        stop.set()
        other.join()
    assert FORKS == []
    assert got.tobytes() == loaded(path, "chunked").tobytes()
    # and once the thread is gone, the split runs again
    assert split.parse_pieces_split(path, CACHED) is not None
    assert len(FORKS) == 1


CASES = {
    name[len("case_"):]: fn for name, fn in list(globals().items()) if name.startswith("case_")
}


def main(case: str, *args: str) -> None:
    split.MIN_BYTES = 0
    split._CORES = 2
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            FORKS.append(pid)
        return pid

    os.fork = counting_fork
    with tempfile.TemporaryDirectory() as tmp:
        tempfile.tempdir = tmp  # what a case writes goes with it
        CASES[case](*args)


if __name__ == "__main__":
    main(*sys.argv[1:])
