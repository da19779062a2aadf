"""Parallel chunk parsing: newline-aligned byte spans across a worker pool.

The paper's fix (§5) makes one rank's parse fast; this module makes it
*wide*. The file is split at newline-aligned byte offsets into spans of
``block_bytes``; each span is decoded independently with the same
engines :func:`repro.frame.read_csv` uses (``_parse_chunk_fast`` /
``_parse_chunk_slow``), so the result is bit-identical to a serial read
— the per-chunk integer narrowing and the int64 < float64 < object
promotion lattice commute with any chunking of the rows.

Workers default to a **process** pool: the hot loop (NumPy's C text
reader pulling lines from a Python list, or ``str.split`` plus
``np.asarray(tokens, float64)`` on the token path) holds the GIL, so
threads cannot scale it. Span results travel back as pickled column
arrays — a binary copy, which is cheap next to text decoding. A thread
pool takes over where a process pool cannot start, and a single span
or worker parses in-process.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Optional, Sequence

from repro.frame.csv import (
    LAST_PARSE_STATS,
    ParseStats,
    _combine,
    _normalize_newlines,
    _parse_chunk_fast,
    _fast_path_rows_per_chunk,
    _parse_chunk_slow,
    _slow_path_rows_per_chunk,
    newline_spans,
)
from repro.frame.dataframe import DataFrame
from repro.ingest.config import DEFAULT_BLOCK_BYTES, resolve_workers

__all__ = ["parse_lines", "read_csv_parallel"]


def _decode_lines(raw: bytes) -> list[str]:
    """Bytes → logical lines, matching ``_LineStream`` framing exactly
    (CRLF normalized, blank lines skipped)."""
    return [ln for ln in _normalize_newlines(raw.decode()).split("\n") if ln]


def parse_lines(
    lines: list[str], names: Sequence, low_memory: bool, sep: str = ","
) -> DataFrame:
    """Parse a batch of lines with the serial engines' internal chunking.

    Mirrors ``read_csv`` by calling its chunk rules: the slow engine
    re-chunks under its byte budget (so transient memory stays bounded
    even inside a big span), the fast engine takes
    ``FAST_CHUNK_BYTES`` bites.
    """
    if not lines:
        return DataFrame({name: [] for name in names})
    if low_memory:
        per_chunk = _slow_path_rows_per_chunk(lines[0])
        parser = _parse_chunk_slow
    else:
        per_chunk = _fast_path_rows_per_chunk(lines[0])
        parser = _parse_chunk_fast
    chunks = [
        parser(lines[i : i + per_chunk], names, sep)
        for i in range(0, len(lines), per_chunk)
    ]
    return _combine(chunks, names)


def parse_span(
    path: str,
    span: tuple[int, int],
    names: Sequence,
    low_memory: bool,
    sep: str = ",",
) -> tuple[DataFrame, ParseStats]:
    """Read one byte span and parse it; returns (frame, this span's stats).

    Runs in a worker (process or thread): the thread-local
    ``LAST_PARSE_STATS`` is reset so the returned snapshot covers
    exactly this span, no matter how spans map onto pool workers.
    """
    start, end = span
    with open(path, "rb") as fh:
        fh.seek(start)
        raw = fh.read(end - start)
    LAST_PARSE_STATS.reset()
    frame = parse_lines(_decode_lines(raw), names, low_memory, sep=sep)
    return frame, LAST_PARSE_STATS.snapshot()


def _resolve_names(path: str, sep: str) -> list[int]:
    """Positional column names from the first line (header=None files)."""
    with open(path, "r", newline="") as fh:
        first = fh.readline()
    if not first.strip():
        raise ValueError(f"empty CSV file: {path}")
    return list(range(first.rstrip("\r\n").count(sep) + 1))


def read_csv_parallel(
    path,
    num_workers: int = 0,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    low_memory: bool = False,
    sep: str = ",",
    names: Optional[Sequence] = None,
) -> DataFrame:
    """Parse a headerless CSV with a span-parallel worker pool.

    Bit-identical to ``read_csv(path, header=None, low_memory=...)``;
    the returned frame carries the merged ``parse_stats`` of every span.
    ``num_workers`` resolves through :func:`~repro.ingest.config.resolve_workers`;
    one worker or one span parses in this process. The pool is a process
    pool, or a thread pool where a process pool cannot start.
    """
    path = str(path)
    workers = resolve_workers(num_workers)
    resolved = list(names) if names is not None else _resolve_names(path, sep)
    spans = newline_spans(path, block_bytes)
    if not spans:
        raise ValueError(f"empty CSV file: {path}")

    if len(spans) == 1 or workers == 1:
        results = [parse_span(path, s, resolved, low_memory, sep) for s in spans]
    else:
        n = len(spans)
        jobs = ([path] * n, spans, [resolved] * n, [low_memory] * n, [sep] * n)
        try:
            with ProcessPoolExecutor(max_workers=min(workers, n)) as pool:
                results = list(pool.map(parse_span, *jobs))
        except (OSError, BrokenProcessPool, ImportError):
            with ThreadPoolExecutor(max_workers=min(workers, n)) as pool:
                results = list(pool.map(parse_span, *jobs))

    frames = [f for f, _ in results]
    stats = ParseStats()
    for _, s in results:
        stats.merge(s)
    out = _combine(frames, resolved)
    out.parse_stats = stats
    return out
