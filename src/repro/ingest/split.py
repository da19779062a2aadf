"""A cold ``cached`` parse on both cores: one forked child casts the
second half of the file into a shared mapping while this process casts
the first.

The text cast is the whole of a cold load, and ``np.loadtxt``'s C reader
holds the GIL, so threads cannot split it. The ``parallel`` pool can,
but pickling its parsed columns back cost more than the second core
saved. Here the child writes its float64 rows into an anonymous
``MAP_SHARED`` mapping, so there is nothing to hand back: it reports a
row count and an exit status, and the parent reads the rows in place.

**Bits and pieces.** The file is cut at the newline after its middle
byte (:func:`~repro.frame.csv.newline_spans`). The parent streams the
first span as :class:`~repro.frame.csv._LineStream` streams a whole
file and casts it chunk by chunk; the child does the same with the
second span. The C cast gives every row the same bits under any grouping
of rows, so after ``waitpid`` the parent rebuilds exactly the chunks of
the serial ``chunked`` parse (``FAST_CHUNK_BYTES`` of first-line width
each): views of the mapping, and one concatenation for the chunk that
straddles the cut. They go through ``_frame_from_matrix``, ``_conform``
and the ``DtypeWarning`` as ``CSVChunkIterator.read_pieces`` does, so the
pieces, their dtypes, the warning and the ``ParseStats`` are the serial
parse's.

**Fallback.** :func:`parse_pieces_split` returns None for anything the
split cannot reproduce, and the caller parses serially (which also
raises the serial parse's error, for a file that has one): a chunk
either side's C cast refuses (the token path owns it), a child that
dies or exits with another status, a mapping or fork the system
refuses, more than ``chunksize`` rows (the serial parse would cut
several outer chunks), an undecodable span, a file that is all one
span, and a text encoding other than UTF-8 or ASCII.

**When.** Only with ``low_memory`` off, for files of at least
:data:`MIN_BYTES`, with two usable cores, where ``os.fork`` exists and
while the process has exactly one OS thread (``/proc/self/task``): fork
then meets no lock another thread holds, and Python 3.12 raises no
fork-with-threads ``DeprecationWarning``.

**Reaping.** The child leaves only through ``os._exit``; the parent
reaps it on every path, killing it first when the parent stops early.
"""

from __future__ import annotations

import codecs
import math
import mmap
import os
import signal
from typing import Optional

import numpy as np

from repro.frame.csv import (
    LAST_PARSE_STATS,
    ParseStats,
    _cast_chunk,
    _fast_path_rows_per_chunk,
    _frame_from_matrix,
    _LineStream,
    _warn_mixed_dtypes,
    newline_spans,
)
from repro.frame.dataframe import DataFrame, _conform
from repro.ingest.config import LoaderConfig
from repro.worker import usable_cores

__all__ = ["parse_pieces_split", "MIN_BYTES"]

#: files below this parse serially (tests patch it to 0). On a 2-vCPU
#: VM, in a process holding 200 MB, a 1 MB file parses in 23.2 ms
#: serially and 23.7 split, a 6 MB one in 90 and 78; and every fork
#: costs the process's next writes page faults
MIN_BYTES = 8 << 20

_CORES = usable_cores()

#: the child's exit statuses; any other status, or a signal, is a death
_ACCEPTED, _REFUSED, _DIED = 0, 3, 4

#: bytes before the rows in the mapping: the child's row count
_HEADER = 8

#: the ``chunked`` parse's separator (``read_csv``'s default)
_SEP = ","


def _one_thread() -> bool:
    """True when this process runs exactly one OS thread (False where
    that cannot be read)."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


class _SpanText:
    """Bytes ``[start, end)`` of a file, decoded as ``read(n)`` calls: what
    :class:`~repro.frame.csv._LineStream` reads from a file opened in
    text mode (``newline=""``), cut at byte offsets."""

    def __init__(self, raw, start: int, end: int, encoding: str):
        raw.seek(start)
        self._raw, self._left = raw, end - start
        self._decoder = codecs.getincrementaldecoder(encoding)()

    def read(self, n: int) -> str:
        data = self._raw.read(min(n, self._left))
        self._left -= len(data)
        return self._decoder.decode(data, final=not data)


def _cast_span(stream: _LineStream, ncols: int, per: int, mapping, cap: int) -> int:
    """The child: cast the stream ``per`` lines at a time into the
    mapping's rows (at most ``cap``); its exit status."""
    out, rows = _rows(mapping, cap, ncols), 0
    while lines := stream.next_lines(per):
        if rows + len(lines) > cap:
            return _REFUSED  # more rows than the parse may hold
        block = _cast_chunk(lines, ncols, _SEP)
        if block is None:
            return _REFUSED
        out[rows : rows + len(lines)] = block
        rows += len(lines)
    np.frombuffer(mapping, np.int64, count=1)[0] = rows
    return _ACCEPTED


def _rows(mapping, nrows: int, ncols: int) -> np.ndarray:
    return np.frombuffer(mapping, np.float64, nrows * ncols, _HEADER).reshape(nrows, ncols)


def _cast_own(stream: _LineStream, first: str, names: list, per: int, limit: int):
    """The parent: its span's full chunks as frames, the cast rows of its
    last, partial chunk (or None) and its row count; None where the
    serial parse must decide."""
    pieces, rows, lines = [], 0, [first]
    while True:
        lines += stream.next_lines(per - len(lines))
        if not lines:
            return pieces, None, rows
        block = _cast_chunk(lines, len(names), _SEP)
        rows += len(lines)
        if block is None or rows > limit:
            return None
        if len(lines) < per:
            return pieces, block, rows
        pieces.append(_frame_from_matrix(block, names))
        lines = []


def parse_pieces_split(
    path, config: LoaderConfig, cut: Optional[int] = None
) -> Optional[tuple[list[DataFrame], ParseStats]]:
    """The ``chunked`` parse of ``path`` on two cores, as
    :func:`repro.ingest.source._parse_pieces` returns it, or None when
    it may not run or cannot reproduce that parse (see the module
    docstring).

    ``cut`` is the byte offset of the line start where the child's span
    begins (default: the newline after the middle byte).
    """
    path = str(path)
    size = os.path.getsize(path)
    if (
        config.low_memory
        or size < MIN_BYTES
        or _CORES < 2
        or not hasattr(os, "fork")
        or not _one_thread()
    ):
        return None
    if cut is None:
        cut = newline_spans(path, math.ceil(size / 2), size)[0][1]
    with open(path, newline="") as fh:  # the text the serial parse reads
        encoding = fh.encoding
    if not 0 < cut < size or codecs.lookup(encoding).name not in ("utf-8", "ascii"):
        return None  # one span; or a newline byte might sit inside a character
    with open(path, "rb") as raw:
        stream = _LineStream(_SpanText(raw, 0, cut, encoding))
        try:
            first = stream.next_line()
        except UnicodeDecodeError:
            return None
        if first is None:
            return None
        names = list(range(first.count(_SEP) + 1))  # header=None's
        ncols, per = len(names), _fast_path_rows_per_chunk(first)
        # a row the C cast accepts holds at least 2·ncols − 1 bytes
        cap = min(config.chunksize, (size - cut) // (2 * ncols - 1) + 1)
        try:
            mapping = mmap.mmap(-1, _HEADER + 8 * cap * ncols)
            pid = os.fork()
        except OSError:  # no memory or no process to spare
            return None
        if pid == 0:  # the child: never returns
            status = _DIED
            try:
                with open(path, "rb") as its_own:
                    span = _LineStream(_SpanText(its_own, cut, size, encoding))
                    status = _cast_span(span, ncols, per, mapping, cap)
            finally:
                os._exit(status)
        try:
            try:
                mine = _cast_own(stream, first, names, per, config.chunksize)
            except UnicodeDecodeError:
                mine = None
            if mine is None:
                return None
            status = os.waitpid(pid, 0)[1]
            pid = None
        finally:
            if pid is not None:  # stopped early: the child's rows are not wanted
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    pieces, tail, rows = mine
    theirs = int(np.frombuffer(mapping, np.int64, count=1)[0])
    if os.waitstatus_to_exitcode(status) != _ACCEPTED or rows + theirs > config.chunksize:
        return None
    theirs, start = _rows(mapping, theirs, ncols), 0
    if tail is not None:  # the chunk that straddles the cut
        start = per - len(tail)
        pieces.append(_frame_from_matrix(np.concatenate([tail, theirs[:start]]), names))
    pieces += [_frame_from_matrix(theirs[i : i + per], names) for i in range(start, len(theirs), per)]
    LAST_PARSE_STATS.reset()
    for _ in pieces:
        LAST_PARSE_STATS.record_chunk(0)
    if len(pieces) > 1:
        _warn_mixed_dtypes(_conform(pieces))
    return pieces, LAST_PARSE_STATS.snapshot()
