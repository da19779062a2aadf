"""CSV reading: both ``low_memory`` code paths, faithfully re-created.

The paper's bottleneck and fix (§5) live here.

**Slow path** (``low_memory=True``, the pandas default the benchmarks
shipped with): the file is processed in *small internal chunks* bounded
by a byte budget. Every chunk is tokenized row by row, every column's
dtype is re-inferred from its tokens, and every value is converted at
Python speed through the object-safe parser in
:mod:`repro.frame.dtypes`. For wide-row files (NT3's 60,483 columns ⇒
~0.5 MB per row) the byte budget degenerates to a handful of rows per
chunk, so the per-chunk/per-column overhead is paid per-value — which is
exactly why the paper measured 81.72 s for the 597 MB NT3 training file.

**Fast path** (``low_memory=False``): each (large) chunk goes from text
to a ``(rows, ncols)`` float64 block inside NumPy's C tokenizer
(``np.loadtxt`` over the chunk's lines) — no per-cell Python string is
ever built, and every cell ends in the same correctly-rounded
``PyOS_string_to_double`` that ``float()`` ends in. Combined with a user
``chunksize`` (the paper uses 16 MB chunks matching Spectrum Scale's
largest I/O block) this is the paper's optimized loader.

**Refusal → token path.** The C cast takes all-numeric ASCII chunks with
one column count and a one-character ``sep``, and nothing else: an NA
spelling, a string, ``1_0``, a ragged row, a CR or an ASCII separator
character anywhere in the chunk, and it refuses the chunk whole
(:func:`_cast_chunk`). A refused chunk is parsed by
:func:`_parse_chunk_tokens` — one C-level ``str.split`` pass, a bulk
``np.asarray(tokens, float64)``, then NA substitution and per-column
dispatch — which therefore defines the result and the error for
everything the C cast does not accept, and is the oracle
``tests/frame/test_parser_differential.py`` holds the C cast to, bit
for bit. Known bound, recorded and not engineered around: the refusal
comes at the *first* non-numeric cell, so a chunk whose first one comes
late has paid for the C cast up to there. One NA in the last of
300 x 4,839 rows: 0.47 -> 0.58 s; NA in row 0 (the genomics files, and
``bench_ingest``'s headline file): +3 ms on 355.

Both paths produce identical frames; the test suite asserts so.
"""

from __future__ import annotations

import io
import os
import threading
import warnings
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.frame.dataframe import DataFrame, _conform, _same_layout, concat
from repro.frame.dtypes import MISSING_TOKENS, infer_column_dtype, parse_column

__all__ = [
    "read_csv",
    "CSVChunkIterator",
    "DtypeWarning",
    "LOW_MEMORY_CHUNK_BYTES",
    "ParseStats",
    "LAST_PARSE_STATS",
    "newline_spans",
]

#: Byte budget for one internal chunk on the slow path. pandas uses
#: low-single-digit MB; we keep the same order so the rows-per-chunk
#: degeneration on wide files happens at the same place.
LOW_MEMORY_CHUNK_BYTES = 1 << 20

#: Text bytes in one chunk on the fast path: the paper's 16 MB chunks,
#: Spectrum Scale's largest I/O block (tests patch it to cut small files)
FAST_CHUNK_BYTES = 16 << 20

#: Read granularity for streaming lines off disk.
_READ_BLOCK_BYTES = 4 << 20


class DtypeWarning(UserWarning):
    """Columns had mixed dtypes across internal chunks (pandas analog)."""


class ParseStats:
    """Transient-memory accounting for the most recent parse.

    The *reason* pandas defaults to ``low_memory=True`` is peak
    transient memory: the engine tokenizes one internal chunk at a time,
    and token lists cost several times the raw bytes. These counters
    record the largest number of Python tokens alive at once in any one
    chunk, so the memory-vs-speed trade (big chunks => fast but
    hungrier) is observable, not folklore. Since the fast engine casts
    all-numeric chunks in C it records 0 for them and pays neither side
    of that trade; the trade now exists only between the slow engine and
    the fast engine's token path (a refused chunk holds every cell of a
    16 MB chunk as a token).
    """

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.peak_chunk_tokens = 0
        self.chunks_parsed = 0

    def record_chunk(self, ntokens: int) -> None:
        self.chunks_parsed += 1
        if ntokens > self.peak_chunk_tokens:
            self.peak_chunk_tokens = ntokens

    def peak_transient_bytes(self, bytes_per_token: int = 56) -> int:
        """Approximate peak token-buffer footprint (PyObject overhead)."""
        return self.peak_chunk_tokens * bytes_per_token

    def snapshot(self) -> "ParseStats":
        """Detached copy (safe to hand across threads/processes)."""
        out = ParseStats()
        out.peak_chunk_tokens = self.peak_chunk_tokens
        out.chunks_parsed = self.chunks_parsed
        return out

    def merge(self, other: "ParseStats") -> None:
        """Fold another engine's counters in (parallel span workers)."""
        self.chunks_parsed += other.chunks_parsed
        if other.peak_chunk_tokens > self.peak_chunk_tokens:
            self.peak_chunk_tokens = other.peak_chunk_tokens

    def as_dict(self) -> dict[str, int]:
        return {
            "peak_chunk_tokens": self.peak_chunk_tokens,
            "chunks_parsed": self.chunks_parsed,
        }

    def __repr__(self):
        return (
            f"<ParseStats chunks={self.chunks_parsed} "
            f"peak_tokens={self.peak_chunk_tokens}>"
        )


class _ThreadLocalParseStats(threading.local):
    """Per-thread :class:`ParseStats` behind the legacy module global.

    ``LAST_PARSE_STATS`` used to be one shared mutable object, which the
    parallel span workers in :mod:`repro.ingest.parallel` (and the
    thread pool in :mod:`repro.frame.dask_like`) would corrupt — peaks
    and chunk counts from concurrent parses interleaving arbitrarily.
    Each thread now accumulates into its own counters, which every
    attribute read goes to; callers that need a cross-worker aggregate
    merge per-worker snapshots explicitly (see ``DataFrame.parse_stats``
    / :class:`repro.ingest.LoadResult`).
    """

    def __init__(self):
        self._stats = ParseStats()

    def __getattr__(self, name):
        return getattr(self._stats, name)


#: stats of the calling thread's most recent read_csv call (reset per
#: call; one independent instance per thread)
LAST_PARSE_STATS = _ThreadLocalParseStats()


# ---------------------------------------------------------------------------
# line streaming
# ---------------------------------------------------------------------------

def _normalize_newlines(text: str) -> str:
    """CRLF → LF. The ``in`` scan is a memchr; the ``replace`` copies the
    whole block, so LF-only text (every CANDLE file) skips it. A CRLF cut
    in two by a block boundary still meets in ``tail + block``: the lone
    ``\\r`` ends the tail, which is never split off as a line."""
    return text.replace("\r\n", "\n") if "\r" in text else text


def newline_spans(path, block_bytes: int, size: Optional[int] = None) -> list[tuple[int, int]]:
    """Byte ranges of ``~block_bytes`` each, extended to the next newline.

    Every byte of the file lands in exactly one span, and no line is
    split across spans — the invariant that makes span-parallel parsing
    equivalent to serial parsing. The one splitter behind the Dask-like
    partitions, the parallel reader's spans and a rank's shard.
    """
    if block_bytes <= 0:
        raise ValueError(f"block_bytes must be positive, got {block_bytes}")
    size = os.path.getsize(path) if size is None else size
    if size == 0:
        return []
    spans = []
    with open(path, "rb") as fh:
        start = 0
        while start < size:
            end = min(start + block_bytes, size)
            if end < size:
                fh.seek(end)
                fh.readline()  # extend to the next newline
                end = fh.tell()
            spans.append((start, end))
            start = end
    return spans


class _LineStream:
    """Stream lines from a text file in large blocks.

    Reading block-wise and splitting keeps per-line Python overhead to a
    single list traversal — the framing cost both parser paths share.
    """

    def __init__(self, fh: io.TextIOBase, comment: Optional[str] = None):
        self._fh = fh
        self._buffer: list[str] = []
        self._pos = 0
        self._tail = ""
        self._eof = False
        self._comment = comment

    def _fill(self) -> None:
        while self._pos >= len(self._buffer) and not self._eof:
            block = self._fh.read(_READ_BLOCK_BYTES)
            if not block:
                self._eof = True
                if self._tail:
                    self._buffer = [self._tail]
                    self._tail = ""
                    self._pos = 0
                return
            lines = _normalize_newlines(self._tail + block).split("\n")
            self._tail = lines.pop()
            self._buffer = lines
            self._pos = 0

    def next_line(self) -> Optional[str]:
        """Next line, or None at EOF. Skips blank lines."""
        while True:
            self._fill()
            if self._pos >= len(self._buffer):
                return None
            line = self._buffer[self._pos]
            self._pos += 1
            if line and not (self._comment and line.startswith(self._comment)):
                return line

    def next_lines(self, n: int) -> list[str]:
        """Up to ``n`` further non-blank lines."""
        out: list[str] = []
        while len(out) < n:
            line = self.next_line()
            if line is None:
                break
            out.append(line)
        return out

    def skip(self, n: int) -> None:
        """Discard the next ``n`` lines (read_csv's skiprows)."""
        for _ in range(n):
            if self.next_line() is None:
                break

    def push_back(self, line: str) -> None:
        """Return a line to the front of the stream (header peeking)."""
        self._buffer = [line] + self._buffer[self._pos :]
        self._pos = 0


# ---------------------------------------------------------------------------
# chunk parsers
# ---------------------------------------------------------------------------

def _tokenize(lines: list[str], ncols: int, sep: str = ",") -> list[str]:
    """One C-level pass: join rows and split on the delimiter.

    Rows are framed by their own cell counts, not by the chunk total: a
    short row followed by a long one must not borrow cells across the
    line break.
    """
    want = ncols - 1
    ragged = next((i for i, ln in enumerate(lines) if ln.count(sep) != want), None)
    if ragged is not None:
        raise ValueError(
            f"ragged CSV chunk: expected {ncols} columns, "
            f"got {lines[ragged].count(sep) + 1} in row {ragged} of the chunk"
        )
    flat = sep.join(lines).split(sep)
    LAST_PARSE_STATS.record_chunk(len(flat))
    if len(flat) != ncols * len(lines):
        # only a multi-character sep gets here: one that also matches
        # across the join ("a:" + "::" + ":b")
        raise ValueError(
            f"ragged CSV chunk: expected {ncols} columns, "
            f"got {len(flat) / len(lines):.2f} on average"
        )
    return flat


#: Characters that make a chunk the token path's, unread. FS, GS, RS and
#: US are the one place the C cast is the *more* permissive: NumPy strips
#: cells with ``Py_UNICODE_ISSPACE``, which counts them as whitespace;
#: ``float()`` strips with ``Py_ISSPACE``, which does not. A CR is a row
#: break to the C tokenizer wherever it stands; framing has already
#: turned every CRLF into LF, so one that is left is cell content.
_TOKEN_PATH_ONLY = ("\r", "\x1c", "\x1d", "\x1e", "\x1f")


def _cast_chunk(lines: list[str], ncols: int, sep: str) -> Optional[np.ndarray]:
    """Text → ``(len(lines), ncols)`` float64 block in NumPy's C tokenizer,
    or None when it refuses the chunk.

    No per-cell Python object is created, and every cell ends in the same
    correctly-rounded ``PyOS_string_to_double`` that ``float()`` ends in,
    so an accepted chunk has the bits the token path would give it. With
    ``_TOKEN_PATH_ONLY`` screened out the C cast is strictly the less
    permissive of the two (no ``1_0``, no non-ASCII digits, no NA
    spelling, no multi-character ``sep``, one column count per call), so
    a refusal decides nothing: the caller hands the chunk to
    :func:`_parse_chunk_tokens`, which defines both the result and the
    error.
    """
    # line by line: no joined copy (1.7 ms per 16 MB chunk, 5.5 joined)
    if any(c in line for line in lines for c in _TOKEN_PATH_ONLY):
        return None
    try:
        # the C reader behind loadtxt is NumPy 1.23+ (pyproject: >=1.24);
        # with max_rows it allocates the block once, not a realloc per
        # quarter grown (whose holes cost a chunked load tens of MB)
        block = np.loadtxt(
            lines, dtype=np.float64, delimiter=sep, comments=None, ndmin=2,
            max_rows=len(lines),
        )
    except (ValueError, TypeError):  # a cell or row / the sep itself
        return None
    return block if block.shape == (len(lines), ncols) else None


def _parse_chunk_fast(lines: list[str], names: Sequence, sep: str = ",") -> DataFrame:
    """The ``low_memory=False`` engine: one C cast per chunk.

    An all-numeric chunk never becomes Python tokens
    (``peak_chunk_tokens`` stays 0); integer narrowing is one
    matrix-wide comparison, not a per-column loop. Anything the C cast
    refuses takes the token path.
    """
    matrix = _cast_chunk(lines, len(names), sep)
    if matrix is None:
        return _parse_chunk_tokens(lines, names, sep)
    LAST_PARSE_STATS.record_chunk(0)
    return _frame_from_matrix(matrix, names)


def _parse_chunk_tokens(lines: list[str], names: Sequence, sep: str = ",") -> DataFrame:
    """The token path: one split pass, then the cast ladder.

    Owns every chunk the C cast refuses — NA spellings, strings, the
    float spellings only Python accepts, ragged rows — and is the oracle
    the differential suite compares the C cast against. Its first rung
    is still a bulk float cast (``1_0`` is numeric here); below it sit
    the chunk-level NA substitution and the per-column dispatch.
    """
    ncols = len(names)
    flat = _tokenize(lines, ncols, sep)
    try:
        matrix = np.asarray(flat, dtype=np.float64).reshape(len(lines), ncols)
    except ValueError:
        frame = _parse_matrix_with_missing(flat, len(lines), names)
        if frame is not None:
            return frame
        return _parse_columns_bulk(flat, len(lines), names)
    return _frame_from_matrix(matrix, names)


def _frame_from_matrix(matrix: np.ndarray, names: Sequence) -> DataFrame:
    """An all-float block as a frame: an int64 block of the integral
    columns, ``matrix`` itself (their slots unplaced) for the rest."""
    ints = np.flatnonzero(_integral_columns(matrix))
    blocks = [matrix, matrix[:, ints].astype(np.int64)]
    blkno, blkloc = np.zeros(len(names), dtype=np.intp), np.arange(len(names))
    blkno[ints], blkloc[ints] = 1, np.arange(ints.size)
    return DataFrame._from_blocks(names, blocks, blkno, blkloc, len(matrix))


def _integral_columns(matrix: np.ndarray) -> np.ndarray:
    """Boolean mask of columns that narrow exactly to int64.

    A cheap head-sample pre-filter rejects float columns without a full
    pass; only surviving candidates are verified in full.
    """
    head = matrix[: min(matrix.shape[0], 16)]
    with np.errstate(invalid="ignore"):
        cand = np.logical_and.reduce(head == np.trunc(head), axis=0)
    int_cols = np.zeros(matrix.shape[1], dtype=bool)
    idx = np.nonzero(cand)[0]
    if idx.size:
        sub = matrix[:, idx]
        with np.errstate(invalid="ignore"):
            ok = np.logical_and.reduce(
                (sub == np.trunc(sub)) & (np.abs(sub) < 2.0**62), axis=0
            )
        int_cols[idx[ok]] = True
    return int_cols


def _substitute_missing(
    toks: list[str],
) -> tuple[Optional[list[str]], list[int]]:
    """A copy of ``toks`` with NA spellings replaced by ``"nan"``.

    One set-membership probe per token — an order of magnitude cheaper
    than building a NumPy unicode array for an ``np.isin`` pass, and the
    resulting *list* of native ``str`` feeds NumPy's fast list→float64
    cast directly (casting *from a U-dtype array* goes through a slow
    per-element scalar path). Returns ``(substituted, na_indices)``,
    with ``substituted=None`` when no NA spelling occurs, so callers can
    tell "cleanly numeric" from "needs substitution".
    """
    na_idx = [i for i, tok in enumerate(toks) if tok in MISSING_TOKENS]
    if not na_idx:
        return None, na_idx
    sub = list(toks)
    for i in na_idx:
        sub[i] = "nan"
    return sub, na_idx


def _cast_float_with_missing(toks: list[str]) -> Optional[np.ndarray]:
    """Bulk float conversion after substituting missing-value spellings.

    One Python-level substitution pass plus one C-level bulk cast —
    replacing the per-token ``float()``-with-fallback loop for the
    common sparse-NaN genomics columns. Returns None when a token is
    neither numeric nor a known missing spelling (the caller falls back
    to the object-safe parser).
    """
    sub, _ = _substitute_missing(toks)
    if sub is None:
        return None
    try:
        return np.asarray(sub, dtype=np.float64)
    except ValueError:
        return None


def _parse_matrix_with_missing(
    flat: list[str], nrows: int, names: Sequence
) -> Optional[DataFrame]:
    """Chunk-level NA-substituted bulk cast — the vectorized fast path.

    When the plain all-numeric matrix cast fails, the most common reason
    in the genomics files is sparse NA spellings. This retries the cast
    *once for the whole chunk* (one substitution pass over the flat
    token list, one bulk float64 cast) instead of dropping to per-column
    work — the per-token ``float()`` loop the reference engine pays, or
    the per-column array builds whose fixed cost defeats vectorization
    on wide-and-short chunks.

    Column dtypes reproduce the reference engine exactly. NA-free
    integral columns re-cast from their *tokens* (``np.int64``) so
    digit strings beyond 2**53 don't take a float round-trip, matching
    the reference's int-inferred path, with its fallbacks preserved:
    float-spelled integrals narrow from the float values and
    out-of-range ints drop to the sampled engine (which defines the
    overflow semantics). Returns None when the chunk has no NA
    spellings or has genuinely non-numeric tokens — the per-column
    ladder owns those cases.
    """
    ncols = len(names)
    sub, na_idx = _substitute_missing(flat)
    if sub is None:
        return None
    try:
        matrix = np.asarray(sub, dtype=np.float64).reshape(nrows, ncols)
    except ValueError:
        return None
    na_cols = np.zeros(ncols, dtype=bool)
    na_cols[np.asarray(na_idx, dtype=np.int64) % ncols] = True
    with np.errstate(invalid="ignore"):
        integral = np.logical_and.reduce(matrix == np.trunc(matrix), axis=0)
    # each re-cast integral column is its own block; matrix holds the rest
    blocks = [matrix]
    blkno, blkloc = np.zeros(ncols, dtype=np.intp), np.arange(ncols)
    for j in np.flatnonzero(integral & ~na_cols).tolist():
        toks = flat[j::ncols]
        try:
            col = np.asarray(toks, dtype=np.int64)
        except ValueError:
            col = _narrow_integral(matrix[:, j])  # float-spelled integrals
        except OverflowError:
            col = _convert_column_sampled(toks)
        blkno[j], blkloc[j] = len(blocks), 0
        blocks.append(col[:, None])
    return DataFrame._from_blocks(names, blocks, blkno, blkloc, nrows)


def _convert_column(toks: list[str], dtype: str) -> np.ndarray:
    """Convert one column's tokens given an inferred dtype.

    Clean numeric columns convert at C speed (as pandas's C parser does
    in *both* low_memory modes); only genuinely mixed columns fall back
    to the per-value object-safe parser. Float columns whose bulk cast
    fails only because of NA spellings convert through
    :func:`_cast_float_with_missing` — the per-value loop runs only for
    genuinely malformed tokens.
    """
    if dtype == "int64":
        try:
            return np.asarray(toks, dtype=np.int64)
        except (ValueError, OverflowError):
            return parse_column(toks)  # sampled inference was wrong
    if dtype == "float64":
        try:
            return np.asarray(toks, dtype=np.float64)
        except ValueError:
            col = _cast_float_with_missing(toks)
            if col is not None:
                return col
            return parse_column(toks, dtype="float64")
    return parse_column(toks, dtype="object")


def _narrow_integral(col: np.ndarray) -> np.ndarray:
    """Narrow a float64 column to int64 when every value is integral."""
    with np.errstate(invalid="ignore"):
        integral = bool(np.all((col == np.trunc(col)) & (np.abs(col) < 2.0**62)))
    return col.astype(np.int64) if integral else col


def _convert_column_sampled(toks: list[str]) -> np.ndarray:
    """Sampled inference + conversion, the dispatch ladder's last rung.

    Infer a dtype from the head sample, convert (falling back to the
    per-value parser when the sample lied), then narrow integral float
    columns.
    """
    dtype = infer_column_dtype(toks[:_INFER_SAMPLE_ROWS])
    col = _convert_column(toks, dtype)
    if col.dtype == np.float64:
        col = _narrow_integral(col)
    return col


def _convert_column_dispatch(toks: list[str]) -> np.ndarray:
    """Vectorized dtype-path dispatch: integral → float → NA-float → safe.

    Each rung is one bulk C-level cast; sampled inference (a ~100-token
    Python loop per column) runs only when every bulk rung fails. The
    ladder reproduces the sampled engine's output exactly: a clean int
    column casts on rung 1, a float (or int-then-float) column on rung
    2, a numeric column with NA spellings on rung 3, and anything with
    genuinely malformed tokens drops to the sampled engine, whose
    fallbacks define the semantics for that case.
    """
    try:
        return np.asarray(toks, dtype=np.int64)
    except OverflowError:
        # out-of-range ints: the sampled engine defines the semantics
        # (including the OverflowError an int-inferred column raises)
        return _convert_column_sampled(toks)
    except ValueError:
        pass
    try:
        return _narrow_integral(np.asarray(toks, dtype=np.float64))
    except ValueError:
        pass
    col = _cast_float_with_missing(toks)
    if col is not None:
        return _narrow_integral(col)
    return _convert_column_sampled(toks)


def _parse_columns_bulk(flat: list[str], nrows: int, names: Sequence) -> DataFrame:
    """Column-wise conversion for chunks where the bulk float cast failed."""
    ncols = len(names)
    return DataFrame({n: _convert_column_dispatch(flat[j::ncols]) for j, n in enumerate(names)})


def _convert_column_reference(toks: list[str]) -> np.ndarray:
    """:func:`_convert_column_sampled` without the bulk NA rung: a float
    column that holds an NA spelling converts value by value."""
    dtype = infer_column_dtype(toks[:_INFER_SAMPLE_ROWS])
    if dtype != "float64":
        col = _convert_column(toks, dtype)  # int64 and object: no NA rung
    else:
        try:
            col = np.asarray(toks, dtype=np.float64)
        except ValueError:
            col = parse_column(toks, dtype="float64")
    if col.dtype == np.float64:
        col = _narrow_integral(col)
    return col


def _parse_chunk_reference(lines: list[str], names: Sequence, sep: str = ",") -> DataFrame:
    """The sampled reference engine: an oracle, never called by :func:`read_csv`.

    The C cast, then one bulk float cast, then sampled inference and
    per-value conversion column by column: the fast engine without the
    chunk-level NA substitution and the dispatch ladder, which must
    reproduce it bit for bit. Tests and ``benchmarks/bench_ingest.py``
    compare against it by putting it in ``_parse_chunk_fast``'s place.
    """
    ncols = len(names)
    matrix = _cast_chunk(lines, ncols, sep)
    if matrix is None:
        flat = _tokenize(lines, ncols, sep)
        try:
            matrix = np.asarray(flat, dtype=np.float64).reshape(len(lines), ncols)
        except ValueError:
            return DataFrame(
                {name: _convert_column_reference(flat[j::ncols]) for j, name in enumerate(names)}
            )
    return _frame_from_matrix(matrix, names)


#: Rows sampled for per-chunk dtype inference on the slow path.
_INFER_SAMPLE_ROWS = 100


def _parse_chunk_slow(lines: list[str], names: Sequence, sep: str = ",") -> DataFrame:
    """The ``low_memory=True`` engine: per-column, per-chunk block work.

    Value conversion itself runs at C speed (pandas's C parser does too);
    what makes this path slow is the *block management* that low_memory
    chunking forces: for every column of every small internal chunk, a
    dtype inference pass over a row sample, a separate array allocation,
    and a final cross-chunk consolidation in the caller. At 60,483
    columns and a handful of rows per chunk, that per-column fixed cost
    is paid per-value — the paper's wide-file bottleneck.
    """
    ncols = len(names)
    flat = _tokenize(lines, ncols, sep)
    columns = (flat[j::ncols] for j in range(ncols))
    return DataFrame({
        name: _convert_column(toks, infer_column_dtype(toks[:_INFER_SAMPLE_ROWS]))
        for name, toks in zip(names, columns)
    })


def _slow_path_rows_per_chunk(sample_line: str) -> int:
    """Rows per internal chunk under the slow path's byte budget.

    Wide rows (NT3: ~533 KB/row) degenerate this to 1-2 rows per chunk —
    the mechanism behind the paper's wide-file slowdowns.
    """
    row_bytes = max(1, len(sample_line) + 1)
    return max(1, LOW_MEMORY_CHUNK_BYTES // row_bytes)


def _fast_path_rows_per_chunk(sample_line: str) -> int:
    """Rows per chunk on the fast path: :data:`FAST_CHUNK_BYTES` of text
    at the first line's width."""
    return max(1, FAST_CHUNK_BYTES // max(1, len(sample_line) + 1))


def _read_chunks(
    stream: _LineStream,
    names: Sequence,
    low_memory: bool,
    nrows: Optional[int],
    sep: str = ",",
) -> Iterator[DataFrame]:
    """Up to ``nrows`` rows (or to EOF) as internal chunks, parsed as read."""
    remaining = nrows if nrows is not None else None
    first = stream.next_line()
    if first is None:
        return

    if low_memory:
        per_chunk = _slow_path_rows_per_chunk(first)
        parser = lambda lines, names: _parse_chunk_slow(lines, names, sep)  # noqa: E731
    else:
        per_chunk = _fast_path_rows_per_chunk(first)
        parser = lambda lines, names: _parse_chunk_fast(lines, names, sep)  # noqa: E731

    pending = [first]
    if remaining is not None:
        remaining -= 1
    while True:
        want = per_chunk - len(pending)
        if remaining is not None:
            want = min(want, remaining)
        batch = stream.next_lines(want) if want > 0 else []
        if remaining is not None:
            remaining -= len(batch)
        pending.extend(batch)
        if not pending:
            break
        yield parser(pending, names)
        pending = []
        if (remaining is not None and remaining <= 0) or len(batch) < max(want, 0):
            break


def _combine(chunks: list[DataFrame], names: Sequence) -> DataFrame:
    """One frame of a read's internal chunks (the pandas concat)."""
    if not chunks:
        return DataFrame({name: np.empty(0) for name in names})
    if len(chunks) > 1:  # recast in place, so a chunk's copy replaces it
        _warn_mixed_dtypes(_conform(chunks))
    return concat(chunks, axis=0, ignore_index=True)


def _warn_mixed_dtypes(mixed: list) -> None:
    """Emit the pandas-style DtypeWarning for columns whose chunks disagree."""
    if mixed:
        more = "..." if len(mixed) > 5 else ""
        warnings.warn(f"columns {mixed[:5]}{more} have mixed dtypes across internal chunks; "
                      "specify low_memory=False", DtypeWarning, stacklevel=4)


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

class CSVChunkIterator:
    """Iterator over ``chunksize``-row DataFrames (pandas TextFileReader).

    The paper's optimized loader is::

        chunks = []
        for chunk in read_csv(path, header=None, chunksize=csize,
                              low_memory=False):
            chunks.append(chunk)
        df = concat(chunks, axis=0, ignore_index=True)
    """

    def __init__(
        self,
        fh: io.TextIOBase,
        names: Sequence,
        chunksize: int,
        low_memory: bool,
        stream: Optional["_LineStream"] = None,
        sep: str = ",",
    ):
        if chunksize <= 0:
            raise ValueError(f"chunksize must be positive, got {chunksize}")
        self._fh = fh
        self._stream = stream if stream is not None else _LineStream(fh)
        self._names = list(names)
        self._chunksize = int(chunksize)
        self._low_memory = low_memory
        self._sep = sep
        self._done = False

    def __iter__(self) -> Iterator[DataFrame]:
        return self

    def __next__(self) -> DataFrame:
        parts = self._next_parts()
        if not parts:
            raise StopIteration
        frame = _combine(parts, self._names)
        frame.parse_stats = LAST_PARSE_STATS.snapshot()
        return frame

    def _next_parts(self) -> list[DataFrame]:
        """The next chunk's internal chunks, unconcatenated ([] at EOF)."""
        if self._done:
            return []
        try:
            parts = list(_read_chunks(
                self._stream, self._names, self._low_memory, self._chunksize, self._sep,
            ))
        except BaseException:
            self.close()  # a parse error ends the iteration too
            raise
        if sum(len(p) for p in parts) < self._chunksize:
            self.close()  # the last chunk (or nothing) was just read
        return parts

    def read_pieces(self) -> list[DataFrame]:
        """The rest of the file as row pieces laid out alike, whose concat
        is ``concat(list(self))``, so that a consumer that only copies
        them out, like the column store, never builds that frame.

        The pieces are the internal chunks, recast one at a time to the
        concat's layout when they disagree on a column's dtype (with the
        same ``DtypeWarning``). Over several chunks of ``chunksize`` rows
        promotion is not associative (int -> float -> object is not
        int -> object), so then the one piece is that frame.
        """
        chunks = list(iter(self._next_parts, []))
        pieces = [p for parts in chunks for p in parts]
        if len(chunks) > 1 and not all(_same_layout(pieces[0], p) for p in pieces[1:]):
            return [concat([_combine(parts, self._names) for parts in chunks])]
        del chunks
        if len(pieces) > 1:
            _warn_mixed_dtypes(_conform(pieces))
        return pieces

    def close(self) -> None:
        """Release the file; further ``next()`` calls stop the iteration."""
        self._done = True
        self._fh.close()

    def __enter__(self) -> "CSVChunkIterator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _resolve_header(stream: _LineStream, header, names, sep: str = ",") -> list:
    """Consume a header line if present; return column names.

    Peeked data lines are pushed back so parsing starts at row 0.
    """
    if names is not None:
        if header == 0:
            line = stream.next_line()
            if line is None:
                raise ValueError("empty CSV file")
        return list(names)
    line = stream.next_line()
    if line is None:
        raise ValueError("empty CSV file")
    if header is None:
        stream.push_back(line)
        return list(range(line.count(sep) + 1))
    if header == 0:
        return line.split(sep)
    if header == "infer":
        toks = line.split(sep)
        try:
            [float(t) for t in toks]  # a header row is not fully numeric
        except ValueError:
            return toks
        stream.push_back(line)
        return list(range(len(toks)))
    raise ValueError(f"unsupported header value {header!r}")


def read_csv(
    path,
    header="infer",
    names: Optional[Sequence] = None,
    chunksize: Optional[int] = None,
    low_memory: bool = True,
    nrows: Optional[int] = None,
    usecols: Optional[Sequence] = None,
    sep: str = ",",
    skiprows: int = 0,
    comment: Optional[str] = None,
    dtype=None,
):
    """Read a CSV file (pandas.read_csv signature subset).

    Parameters mirror pandas: ``header=None`` for headerless numeric
    files (what all CANDLE loaders pass), ``chunksize`` to get an
    iterator of frames, ``low_memory`` to select the parsing engine
    (see module docstring), ``nrows``/``usecols`` for subsetting,
    ``sep`` for the delimiter, ``skiprows`` to drop leading lines,
    ``comment`` to skip lines starting with a marker character, and
    ``dtype`` to force every column to one NumPy dtype after parsing.

    Returns a :class:`DataFrame`, or a :class:`CSVChunkIterator` when
    ``chunksize`` is given.
    """
    if not sep:
        raise ValueError("sep must be a non-empty string")
    LAST_PARSE_STATS.reset()
    if skiprows < 0:
        raise ValueError(f"skiprows must be non-negative, got {skiprows}")
    owns_fh = not hasattr(path, "read")
    fh = open(path, "r", newline="") if owns_fh else path
    try:
        stream = _LineStream(fh, comment=comment)
        stream.skip(skiprows)
        resolved = _resolve_header(stream, header, names, sep=sep)
        if chunksize is not None:
            return CSVChunkIterator(
                fh, resolved, chunksize, low_memory, stream=stream, sep=sep
            )
    except Exception:
        if owns_fh:
            fh.close()
        raise

    try:
        frame = _combine(list(_read_chunks(stream, resolved, low_memory, nrows, sep)), resolved)
    finally:
        if owns_fh:
            fh.close()
    if usecols is not None:
        frame = frame[list(usecols)]
    if dtype is not None:
        frame = frame.astype(dtype)
    frame.parse_stats = LAST_PARSE_STATS.snapshot()
    return frame
