"""Differential suite: the C cast against the token path.

``_parse_chunk_fast`` casts an all-numeric chunk from text to float64 in
NumPy's C tokenizer and hands whatever that refuses to
``_parse_chunk_tokens``. The token path is the oracle: called directly on
the same lines it must give, column by column, the same dtype and the
same bytes (``-0.0`` and the sign of a NaN count), or raise the same type
of exception. A refusal cannot differ by construction; what is under test
is every chunk the C cast *accepts*.

Three layers: a fixed corpus of cell spellings, a fixed corpus of whole
files, and a Hypothesis strategy — the last two through every entry point
that frames lines for the engine (``read_csv``, ``chunksize=``,
``read_csv_parallel``, ``PartitionedCSVReader``), each compared with the
same call made with the token path in the engine's place.

Tier-1 runs the strategy on a small fixed-seed budget; locally,
``pytest tests/frame/test_parser_differential.py --hypothesis-profile=deep``
runs 600 fresh examples per property (profile in ``tests/conftest.py``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.frame.csv as csv_mod
import repro.frame.dask_like as dask_mod
import repro.ingest.parallel as parallel_mod
from repro.frame import PartitionedCSVReader, concat, read_csv
from repro.frame.csv import (
    LAST_PARSE_STATS,
    _cast_chunk,
    _parse_chunk_fast,
    _parse_chunk_tokens,
)
from repro.ingest import read_csv_parallel

pytestmark = pytest.mark.filterwarnings("ignore::repro.frame.csv.DtypeWarning")

if settings.default is settings.get_profile("deep"):
    FUZZ = settings()
else:
    FUZZ = settings(max_examples=40, derandomize=True, deadline=None)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def fingerprint(frame):
    """Per column ``(name, dtype, exact content)``. Numeric columns by
    their bytes; object columns (whose bytes are pointers) by the type
    and repr of each value."""
    out = []
    for name in frame.columns:
        col = frame[name]
        if col.dtype == object:
            content = [(type(v).__name__, repr(v)) for v in col.tolist()]
        else:
            content = col.tobytes()
        out.append((name, str(col.dtype), content))
    return out


def outcome(fn, *args, **kwargs):
    """``("ok", fingerprint)`` or ``("raised", exception type)``."""
    try:
        return "ok", fingerprint(fn(*args, **kwargs))
    except Exception as exc:
        return "raised", type(exc)


def assert_same_chunk(lines, ncols, sep=","):
    names = list(range(ncols))
    assert outcome(_parse_chunk_fast, lines, names, sep) == outcome(
        _parse_chunk_tokens, lines, names, sep
    ), (lines, sep)


class token_path_as_engine:
    """Every module that frames lines for the engine sees the token path
    in its place: the oracle for a whole-file entry point is the same
    call, same framing and chunking, without the C cast."""

    def __enter__(self):
        self._patch = pytest.MonkeyPatch()
        for mod in (csv_mod, parallel_mod, dask_mod):
            self._patch.setattr(mod, "_parse_chunk_fast", _parse_chunk_tokens)

    def __exit__(self, *exc):
        self._patch.undo()


def _whole(path, sep, **kw):
    return read_csv(path, header=None, low_memory=False, sep=sep, **kw)


def _chunks(path, sep, **kw):
    with read_csv(path, header=None, low_memory=False, sep=sep, chunksize=2, **kw) as it:
        return concat(list(it), axis=0, ignore_index=True)


def _parallel(path, sep):
    return read_csv_parallel(path, block_bytes=24, sep=sep, num_workers=1)


def _partitioned(path, sep):
    return PartitionedCSVReader(path, blocksize=24, num_workers=1, engine="fast").read()


def assert_same_file(tmp_path, text, sep=",", **read_csv_kwargs):
    """Every entry point, with and without the C cast, on one file."""
    path = tmp_path / "f.csv"
    path.write_text(text, newline="")
    loaders = [_whole, _chunks]
    if not read_csv_kwargs:  # the span readers take a bare headerless file
        loaders.append(_parallel)
        if sep == ",":  # PartitionedCSVReader is comma-only
            loaders.append(_partitioned)
    for load in loaders:
        got = outcome(load, str(path), sep, **read_csv_kwargs)
        with token_path_as_engine():
            want = outcome(load, str(path), sep, **read_csv_kwargs)
        assert got == want, (load.__name__, text, sep)


# ---------------------------------------------------------------------------
# fixed corpus: spellings
# ---------------------------------------------------------------------------

SPELLINGS = [
    # what only Python's float() takes
    "1_0", "1_000.5", "1__0", "_1", "1_",
    "\u0661\u0662", "\uff11\uff12", "\uff11.\uff15", "1\u0660",  # non-ASCII digits
    # nan / inf, every sign and case
    "nan", "NaN", "NAN", "-nan", "+nan", "nan(12)", "nan()", "nanx",
    "inf", "-inf", "+inf", "Inf", "iNf", "infinity", "-Infinity", "infinit", "in",
    # other bases
    "0x10", "0X1F", "0x1p3", "0b101", "0o17",
    # range: overflow, underflow, denormals, the largest double and past it
    "1e400", "-1e400", "1e-400", "-1e-400", "4.9e-324", "2.4e-324", "5e-324",
    "2.2250738585072014e-308", "2.2250738585072011e-308",
    "1.7976931348623157e308", "1.7976931348623159e308",
    # mantissas longer than a double (SNIPPETS.md s.2: 28 digits)
    "0.1213700904466425978256438611", "0.8323255650024565799327547210",
    "0.6295047811546814475747169126", "123456789012345678901234567890",
    "0." + "0" * 40 + "1", "1" + "0" * 30 + ".5",
    # integers at the narrowing boundaries
    "9007199254740992", "9007199254740993", "4611686018427387903",
    "4611686018427387904", "-4611686018427387904", "9223372036854775807",
    "9223372036854775808", "-9223372036854775809",
    # zeros and signs
    "-0", "-0.0", "+0", "0e0", "-0e-400", "++1", "--1", "+-1", "+", "-",
    # the grammar's corners
    "1e5", "1E5", "1.e3", ".5", "5.", "+.5e-3", "1e+", "1e", "e5", ".", "1.5.2",
    "1.5e3.2", "1d5", "1.5f", "1.5L", "1+2j", "(1.5)", "1 5", "1e 5",
    # whitespace of every kind, NUL, BOM, CR
    " 1.5", "1.5 ", "\t1.5\t", "\x0c1.5", "\x0b1.5", "1.5\x1c", "\x1f1.5",
    "\u00a01.5", "1.5\u2003", "\u30001.5", "1.5\x00", "\x001.5", "1\x005",
    "\ufeff1.5", "1.5\r", "\r1.5", "1.5\r\r", "1\r5", " ", "\r",
    # quotes, comments, NA spellings, words
    '"1.5"', "'1.5'", '1.5"', "1.5#", "#1.5", "3 # comment", "", "NA", "N/A",
    "na", "null", "NULL", "None", "True", "abc",
]


@pytest.mark.parametrize("cell", SPELLINGS, ids=[repr(c) for c in SPELLINGS])
def test_spelling(cell):
    """Alone, first, in the middle, last and repeated down a column, so
    that it meets both the bulk cast and the integer narrowing."""
    if cell:  # framing never hands the engine an empty line
        assert_same_chunk([cell], 1)
    assert_same_chunk([f"{cell},2,3.5", "4,5,6.25"], 3)
    assert_same_chunk([f"1,{cell},3.5", "4,5,6.25"], 3)
    assert_same_chunk(["1,2,3.5", f"4,5,{cell}"], 3)
    assert_same_chunk([f"1,{cell}", f"2,{cell}", f"3,{cell}"], 2)


def test_an_accepted_spelling_is_cast_without_tokens():
    """The suite compares something: plain cells are accepted by the C
    cast (no token is built), and the Python-only spellings are not."""
    LAST_PARSE_STATS.reset()
    _parse_chunk_fast(["1,2.5,-0.0", "4,nan,1e400"], [0, 1, 2])
    assert LAST_PARSE_STATS.peak_chunk_tokens == 0
    assert LAST_PARSE_STATS.chunks_parsed == 1
    for refused in ("1_0", "\u0661", "NA", "", "0x10"):
        assert _cast_chunk([f"1,{refused}"], 2, ",") is None
        LAST_PARSE_STATS.reset()
        outcome(_parse_chunk_fast, [f"1,{refused}"], [0, 1])
        assert LAST_PARSE_STATS.peak_chunk_tokens == 2  # the token path ran
        assert LAST_PARSE_STATS.chunks_parsed == 1  # and the chunk counts once


@pytest.mark.parametrize("sep", ["::", "", "\n", "\r", ", "])
def test_a_sep_the_c_reader_rejects_is_the_token_paths(sep):
    """``loadtxt`` takes one character that is not a newline."""
    assert _cast_chunk(["1,2"], 2, sep) is None
    if sep:  # read_csv rejects the empty one itself
        assert_same_chunk([f"1{sep}2", f"3{sep}4.5"], 2, sep)


def test_names_that_disagree_with_the_rows_are_the_token_paths():
    """Three cells a row under two names: the C cast would return a
    (2, 3) block; it is refused, and the token path raises."""
    assert _cast_chunk(["1,2,3", "4,5,6"], 2, ",") is None
    assert_same_chunk(["1,2,3", "4,5,6"], 2)
    assert outcome(_parse_chunk_fast, ["1,2,3", "4,5,6"], [0, 1]) == ("raised", ValueError)


# ---------------------------------------------------------------------------
# fixed corpus: whole files
# ---------------------------------------------------------------------------

_LONG = (
    "0.1213700904466425978256438611,0.0525708283766902484401839501,"
    "0.4174092731488769913994474336\n"
    "        0.4096341697147408700274695547,0.1587830198973579909349496119,"
    "0.1292545832485494372576795285\n"
    "        0.8323255650024565799327547210,0.9694902427379478160318626578,"
    "0.6295047811546814475747169126\n"
)

FILES = {
    "plain": "1,2.5,3\n4,5.5,6\n7,8.5,9\n",
    "no-trailing-newline": "1,2.5\n3,4.5",
    "single-cell": "7\n",
    "single-row": "1,2,3,4,5,6,7,8\n",
    "single-column": "1\n2\n3.5\n4\n5\n",
    "ragged-total-matches": "1,2,3\n4\n5,6,7,8,9\n",
    "ragged-short-last": "1,2,3\n4,5,6\n7,8\n",
    "ragged-long-last": "1,2,3\n4,5,6\n7,8,9,10\n",
    "ragged-first": "1,2\n3,4,5\n6,7,8\n",
    "whitespace-line-middle": "1,2\n   \n3,4\n",
    "whitespace-line-last": "1,2\n3,4\n \t \n",
    "whitespace-line-single-column": "1\n \n2\n",
    "blank-lines": "1,2\n\n\n3,4\n\n5,6\n\n",
    "crlf": "1,2.5\r\n3,4.5\r\n5,6.5\r\n",
    "crlf-no-final": "1,2.5\r\n3,4.5",
    "crlf-and-lf": "1,2.5\r\n3,4.5\n5,6.5\r\n7,8.5\n",
    "cr-only": "1,2\r3,4\r5,6\r",
    "cr-mid-line": "1,2\n3\r,4\n5,6\n",
    "blank-crlf-lines": "1,2\r\n\r\n3,4\r\n",
    "quotes": '"1","2"\n"3","4"\n',
    "quoted-sep": '1,"2,5",3\n4,5,6\n',
    "nul": "1,2\x00\n3,4\n",
    "nul-line": "1,2\n\x00\n3,4\n",
    "empty-cells": "1,,3\n4,5,\n,8,9\n",
    "trailing-sep": "1,2,\n3,4,\n",
    "na-row-0": "NA,2,3\n4,5,6\n7,8,9\n",
    "na-last-row": "1,2,3\n4,5,6\n7,8,NA\n",
    "na-column": "1,NA\n2,NA\n3,NA\n",
    "strings-row-0": "a,b,c\n1,2,3\n4,5,6\n",
    "string-column": "1,alpha\n2,beta\n3,gamma\n",
    "int-then-float": "1,2\n3,4\n5,6.5\n7,8\n",
    "big-ints": "9007199254740993,1\n9223372036854775807,2\n4611686018427387904,3\n",
    "negative-zeros": "-0,-0.0\n0,0.0\n-0,-0.0\n",
    "nan-inf": "nan,inf\n-nan,-inf\nNaN,Infinity\n1,2\n",
    "python-only-floats": "1_0,2\n3,4_4.5\n5,6\n",
    "non-ascii-digits": "\u0661,2\n3,4\n",
    "leading-whitespace-rows": _LONG * 2,  # SNIPPETS.md s.2, with its
    "leading-whitespace-rows-closed": _LONG * 2 + "        ",  # blank tail
    "28-digit-floats": _LONG.replace("        ", "") * 3,
    "mid-line-comment": "1,2,3 # comment\n4,5,6 # comment\n7,8,9 # comment\n",
    "wide": ",".join(["0.25"] * 300) + "\n" + ",".join(["1"] * 300) + "\n",
    "tall": "".join(f"{i},{i / 8}\n" for i in range(200)),
}


@pytest.mark.parametrize("name", list(FILES))
def test_file(tmp_path, name):
    assert_same_file(tmp_path, FILES[name])


@pytest.mark.parametrize("sep", [",", ";", "\t", "|", " ", ":", "::", "e"])
@pytest.mark.parametrize("name", ["plain", "crlf", "empty-cells", "na-last-row",
                                  "ragged-total-matches", "nan-inf"])
def test_file_under_each_separator(tmp_path, name, sep):
    assert_same_file(tmp_path, FILES[name].replace(",", sep), sep=sep)


@pytest.mark.parametrize(
    "text",
    [
        "# head\n1,2,3\n# mid\n4,5,6\n#\n7,8,9\n",
        "A,B,C\n" + "1,2,3 # comment\n" * 4,  # SNIPPETS.md s.2 read_csv_comment2
        "#only\n",
    ],
)
def test_file_with_comment_lines(tmp_path, text):
    assert_same_file(tmp_path, text, comment="#")


def test_header_and_names(tmp_path):
    assert_same_file(tmp_path, "a,b\n1,2.5\n3,4.5\n", header=0)
    assert_same_file(tmp_path, "1,2.5\n3,4.5\n", names=["x", "y"])
    assert_same_file(tmp_path, "1,2.5,9\n3,4.5,9\n", names=["x", "y"])  # too few names


# ---------------------------------------------------------------------------
# Hypothesis
# ---------------------------------------------------------------------------

_FLOATS = st.floats(allow_nan=False, allow_infinity=False, width=64)

NUMERIC_CELL = st.one_of(
    _FLOATS.map(lambda v: "%.6g" % v),  # the CANDLE file format
    _FLOATS.map(repr),  # shortest round-trip spelling
    st.floats(min_value=-1e6, max_value=1e6).map(lambda v: "%.6g" % v),
    st.integers(min_value=-(2**63) - 5, max_value=2**63 + 5).map(str),
    st.integers(min_value=-1000, max_value=1000).map(str),
    st.integers(min_value=-9, max_value=9).map(lambda v: f"{v}.0"),
    st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "-0", "-0.0",
                     "1e400", "1e-400", "5e-324", "0.1213700904466425978256438611"]),
)

ODD_CELL = st.sampled_from([
    "NA", "", "na", "N/A", "null", "abc", "1_0", "0x10", "1.5.2", "--1", "\u0661\u0662",
    " 2.5", "2.5 ", " ", '"3"', "1\x00", "3 # c", "1e", "nan(1)", "2.5\r", "\r2.5",
    "\x1f2.5", "2.5\x1c",
])

SEP = st.sampled_from([",", ";", "\t", "|", " ", "::"])


@st.composite
def tables(draw):
    """``(rows of cells, ncols, sep, newline)``: wide-and-short or tall-and-narrow,
    numeric but for a few odd cells, now and then one row too short or too
    long and a whitespace-only line."""
    if draw(st.booleans()):
        nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    else:
        nrows, ncols = draw(st.integers(1, 40)), draw(st.integers(1, 4))
    rows = [
        draw(st.lists(NUMERIC_CELL, min_size=ncols, max_size=ncols)) for _ in range(nrows)
    ]
    odd = draw(st.lists(
        st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1), ODD_CELL),
        max_size=3,
    ))
    for i, j, cell in odd:
        rows[i][j] = cell
    edit = draw(st.sampled_from(["none"] * 6 + ["shorter", "longer", "blank"]))
    at = draw(st.integers(0, nrows - 1))
    if edit == "shorter":
        rows[at] = rows[at][:-1] or [""]
    elif edit == "longer":
        rows[at] = rows[at] + ["7"]
    elif edit == "blank":
        rows.insert(at, ["  "])
    return rows, ncols, draw(SEP), draw(st.sampled_from(["\n", "\r\n"]))


def _lines(rows, sep):
    """A cell must not contain the separator: ``" 2.5"`` is two cells
    under ``sep=" "``, and a ragged row is drawn on purpose, not so."""
    return [sep.join(c.replace(sep, "") for c in row) for row in rows]


@given(tables())
@FUZZ
def test_fuzz_chunk(table):
    rows, ncols, sep, _ = table
    lines = [ln for ln in _lines(rows, sep) if ln]  # the framing drops empty lines
    if lines:
        assert_same_chunk(lines, ncols, sep)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """One directory for every example: each overwrites ``f.csv``."""
    return tmp_path_factory.mktemp("fuzz")


@given(tables())
@FUZZ
def test_fuzz_file(fuzz_dir, table):
    rows, _, sep, newline = table
    text = newline.join(_lines(rows, sep)) + newline
    assert_same_file(fuzz_dir, text, sep=sep)


@given(st.lists(st.lists(NUMERIC_CELL, min_size=3, max_size=3), min_size=1, max_size=30))
@FUZZ
def test_fuzz_numeric_chunk_builds_no_tokens(rows):
    """All-numeric, ASCII, one column count: the C cast takes it whole."""
    lines = [",".join(r) for r in rows]
    LAST_PARSE_STATS.reset()
    assert_same_chunk(lines, 3)
    # assert_same_chunk ran the fast engine, then the oracle: two chunks,
    # and only the oracle's tokens
    assert LAST_PARSE_STATS.chunks_parsed == 2
    assert LAST_PARSE_STATS.peak_chunk_tokens == 3 * len(rows)
    LAST_PARSE_STATS.reset()
    _parse_chunk_fast(lines, [0, 1, 2])
    assert LAST_PARSE_STATS.peak_chunk_tokens == 0
