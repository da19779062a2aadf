"""A cache hit costs O(blocks), not O(columns), in Python objects.

A warm ``lookup`` plus ``_split_frame`` of a 64-row NT3-shaped entry
(an int64 label column, then float64 features) is traced with
``tracemalloc`` at ``io_wide``'s 4,840 columns and at NT3's full 60,484
(Table 1). The Python objects the hit leaves alive (frame, arrays,
mappings) may differ between the two widths by a small constant only:
no name list, name set or per-column index. Counts, not timings.

NumPy traces its array buffers in a domain of its own
(``np.lib.tracemalloc_domain``); the placement arrays are C-level and
are left out. So is the fingerprint's first-line SHA-256, which is
O(line bytes) by design: the source here is a one-line file, and the
entry is stored from a frame, not parsed from text.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np

from repro.candle import get_benchmark
from repro.frame import DataFrame
from repro.ingest import ColumnStoreCache

NROWS = 64
#: what the Python-object footprint of a hit may grow by, 4,840 → 60,484 columns
SLACK_BYTES = 64 << 10
SLACK_BLOCKS = 64

_PYTHON_ONLY = [tracemalloc.DomainFilter(inclusive=False, domain=np.lib.tracemalloc_domain)]


def _entry(tmp_path, width: int) -> tuple[ColumnStoreCache, str]:
    """A stored NT3-layout frame of ``width`` columns, named as a
    ``header=None`` parse names them."""
    rng = np.random.default_rng(width)
    labels = rng.integers(0, 2, (NROWS, 1))
    features = rng.random((NROWS, width - 1))
    frame = DataFrame._from_blocks(list(range(width)), [labels, features],
                                   [0] + [1] * (width - 1), [0, *range(width - 1)], NROWS)
    source = tmp_path / f"w{width}.csv"
    source.write_text("0\n")
    cache = ColumnStoreCache(tmp_path / "cache")
    cache.store(source, frame)
    return cache, str(source)


def _retained(fn) -> tuple[int, int]:
    """``(bytes, blocks)`` of Python-object memory that ``fn()``'s result
    keeps alive."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(_PYTHON_ONLY)
        result = fn()
        after = tracemalloc.take_snapshot().filter_traces(_PYTHON_ONLY)
    finally:
        tracemalloc.stop()
    stats = after.compare_to(before, "filename")
    del result
    return sum(s.size_diff for s in stats), sum(s.count_diff for s in stats)


def test_a_hit_and_its_split_make_no_object_per_column(tmp_path):
    bench = get_benchmark("nt3", scale=0.01)
    entries = {width: _entry(tmp_path, width) for width in (4_840, 60_484)}

    def hit(width):
        cache, source = entries[width]
        frame = cache.lookup(source)
        return frame, bench._split_frame(frame)

    for width in entries:  # first calls: imports, caches, the JSON scanner
        hit(width)
    (narrow, narrow_n), (wide, wide_n) = (_retained(lambda: hit(w)) for w in entries)
    _, (x, y) = hit(60_484)
    assert x.shape == (NROWS, 60_483, 1) and y.shape == (NROWS, 2)
    assert wide - narrow < SLACK_BYTES, (narrow, wide)
    assert wide_n - narrow_n < SLACK_BLOCKS, (narrow_n, wide_n)
