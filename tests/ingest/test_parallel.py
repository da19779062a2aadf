"""Span-parallel parsing: bit-identity with serial read_csv, stats safety."""

from __future__ import annotations

import threading
from pathlib import Path

import numpy as np
import pytest

from repro.frame import csv as csv_mod
from repro.frame import read_csv
from repro.frame.csv import LAST_PARSE_STATS, ParseStats
from repro.ingest import newline_spans, read_csv_parallel
from repro.ingest import parallel as parallel_mod
from repro.ingest.parallel import parse_span
from repro.ingest.shard import read_csv_shard


def test_newline_spans_partition_the_file(mixed_csv):
    import os

    size = os.path.getsize(mixed_csv)
    spans = newline_spans(mixed_csv, 1024)
    assert spans[0][0] == 0
    assert spans[-1][1] == size
    for (_, a_end), (b_start, _) in zip(spans, spans[1:]):
        assert a_end == b_start
    # every boundary except 0/EOF sits just after a newline
    with open(mixed_csv, "rb") as fh:
        data = fh.read()
    for start, _ in spans[1:]:
        assert data[start - 1 : start] == b"\n"


def test_newline_spans_rejects_bad_block_bytes(mixed_csv):
    with pytest.raises(ValueError):
        newline_spans(mixed_csv, 0)


@pytest.mark.parametrize("low_memory", [False, True])
@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
def test_parallel_bit_identical_to_serial(mixed_csv, low_memory, executor, monkeypatch):
    # "serial": one worker parses in-process; "thread": a process pool
    # cannot start, so threads take over; "process": the default pool
    if executor == "thread":
        def refuse(*args, **kwargs):
            raise OSError("no process pool here")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", refuse)
    serial = read_csv(mixed_csv, header=None, low_memory=low_memory)
    par = read_csv_parallel(
        mixed_csv,
        num_workers=1 if executor == "serial" else 3,
        block_bytes=1024,  # force many spans even on a small file
        low_memory=low_memory,
    )
    assert par.equals(serial)
    assert [par[c].dtype for c in par.columns] == [
        serial[c].dtype for c in serial.columns
    ]


@pytest.mark.parametrize("low_memory", [False, True])
def test_parallel_bit_identical_wide_rows(wide_csv, low_memory):
    serial = read_csv(wide_csv, header=None, low_memory=low_memory)
    par = read_csv_parallel(
        wide_csv, num_workers=2, block_bytes=4096, low_memory=low_memory
    )
    assert par.equals(serial)


def test_single_span_degrades_to_serial(mixed_csv):
    serial = read_csv(mixed_csv, header=None, low_memory=False)
    par = read_csv_parallel(mixed_csv, num_workers=4)  # default 16 MB spans: 1 span
    assert par.equals(serial)


def test_one_span_parses_the_chunks_read_csv_parses(mixed_csv, monkeypatch):
    # FAST_CHUNK_BYTES patched to ~40 rows of this file: the serial
    # chunked parse, the parallel reader's one span and a one-rank shard
    # cut the same internal chunks, so their ParseStats agree
    width = len(Path(mixed_csv).read_text().splitlines()[0])
    monkeypatch.setattr(csv_mod, "FAST_CHUNK_BYTES", 40 * width)
    serial = read_csv(mixed_csv, header=None, low_memory=False)
    assert serial.parse_stats.chunks_parsed > 1
    par = read_csv_parallel(mixed_csv, num_workers=1)
    shard = read_csv_shard(mixed_csv, 0, 1)
    assert par.parse_stats.chunks_parsed == serial.parse_stats.chunks_parsed
    assert shard.parse_stats.chunks_parsed == serial.parse_stats.chunks_parsed
    assert par.equals(serial) and shard.equals(serial)


def test_merged_stats_cover_every_span(mixed_csv, tmp_path):
    nspans = len(newline_spans(mixed_csv, 1024))

    def stats(path, low_memory=False):
        par = read_csv_parallel(
            path, num_workers=1, block_bytes=1024, low_memory=low_memory
        )
        assert isinstance(par.parse_stats, ParseStats)
        assert par.parse_stats.chunks_parsed >= nspans
        return par.parse_stats

    # all-numeric spans are cast in C: every span counted, no token built
    assert stats(mixed_csv).peak_chunk_tokens == 0
    # the slow engine still tokenizes
    assert stats(mixed_csv, low_memory=True).peak_chunk_tokens > 0
    # one NA: its span takes the token path, and the merged peak is that
    # span's cell count
    with open(mixed_csv) as fh:
        cells = fh.read().split(",", 2)
    cells[1] = "NA"  # row 0 of a float column
    with_na = tmp_path / "na.csv"
    with_na.write_text(",".join(cells))
    first_span = newline_spans(with_na, 1024)[0][1]
    first_span_rows = with_na.read_text()[:first_span].count("\n")
    assert stats(with_na).peak_chunk_tokens == 27 * first_span_rows


def test_rejects_empty_file(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_csv_parallel(empty)


def test_parse_stats_are_thread_local(mixed_csv):
    """Concurrent parses must not bleed into each other's LAST_PARSE_STATS."""
    spans = newline_spans(mixed_csv, 1024)
    names = list(range(27))
    seen: dict[str, int] = {}
    errors: list[Exception] = []
    barrier = threading.Barrier(2)

    def worker(key: str, nspans: int):
        try:
            barrier.wait(timeout=10)
            LAST_PARSE_STATS.reset()
            for span in spans[:nspans]:
                parse_span(mixed_csv, span, names, False)
                # parse_span resets per call; re-record to observe isolation
            LAST_PARSE_STATS.reset()
            for _ in range(nspans):
                LAST_PARSE_STATS.record_chunk(nspans)
            seen[key] = LAST_PARSE_STATS.chunks_parsed
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=("a", 2)),
        threading.Thread(target=worker, args=("b", 5)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert seen == {"a": 2, "b": 5}


def test_frame_carries_parse_stats_snapshot(mixed_csv):
    frame = read_csv(mixed_csv, header=None, low_memory=False)
    assert frame.parse_stats.chunks_parsed >= 1
    before = frame.parse_stats.chunks_parsed
    # a later parse must not mutate the snapshot attached earlier
    read_csv(mixed_csv, header=None, low_memory=True)
    assert frame.parse_stats.chunks_parsed == before
