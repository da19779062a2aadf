"""The three data-loading methods over real benchmark files.

This module exercises the *deprecated* ``repro.core.dataloading`` shim
layer on purpose — its behavior is contract for external callers. The
replacement ``repro.ingest.DataSource`` API is covered in
``tests/ingest`` (with ``DeprecationWarning`` escalated to an error).
"""

import numpy as np
import pytest

from repro.candle import get_benchmark
from repro.core import LOAD_METHODS, load_benchmark_data, load_csv_timed

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(scope="module")
def nt3_files(tmp_path_factory):
    b = get_benchmark("nt3", scale=0.01, sample_scale=0.1)
    tmp = tmp_path_factory.mktemp("nt3")
    train, test = b.write_files(tmp, rng=np.random.default_rng(0))
    return b, train, test


@pytest.mark.parametrize("method", LOAD_METHODS)
def test_all_methods_load_identical_data(nt3_files, method):
    b, train, test = nt3_files
    ref = load_benchmark_data(b, train, test, method="chunked")
    got = load_benchmark_data(b, train, test, method=method)
    assert np.allclose(got.x_train, ref.x_train)
    assert np.allclose(got.y_train, ref.y_train)
    assert got.load_seconds > 0


def test_load_csv_timed_returns_positive_seconds(nt3_files):
    _, train, _ = nt3_files
    df, seconds = load_csv_timed(train, method="original")
    assert seconds > 0
    assert df.shape[0] > 0


def test_unknown_method_rejected(nt3_files):
    _, train, _ = nt3_files
    with pytest.raises(ValueError, match="unknown method"):
        load_csv_timed(train, method="mmap")


def test_chunked_method_honors_chunksize(nt3_files):
    _, train, _ = nt3_files
    small, _ = load_csv_timed(train, method="chunked", chunksize=7)
    big, _ = load_csv_timed(train, method="chunked", chunksize=10**6)
    assert small.equals(big)


def test_wide_file_speedup_shape(tmp_path):
    """The Table 3 effect at laptop scale, asserted on its cause: on a
    wide-row file ``original`` re-enters the tokenizer once per internal
    low-memory chunk, ``chunked`` parses the file in one — same frame,
    fewer and larger chunks, and (all-numeric file) cast in C without a
    single Python token. How many seconds that buys is a wall-clock
    claim: it belongs to the ``io_wide`` workload of ``benchmarks/e2e``,
    not to a single-shot ratio in tier-1."""
    b = get_benchmark("nt3", scale=0.15, sample_scale=0.05)  # wide rows
    train, _ = b.write_files(tmp_path, rng=np.random.default_rng(1))
    orig, _ = load_csv_timed(train, method="original")
    chunk, _ = load_csv_timed(train, method="chunked")
    assert chunk.equals(orig)
    cells = orig.shape[0] * orig.shape[1]
    assert chunk.parse_stats.chunks_parsed == 1
    assert chunk.parse_stats.peak_chunk_tokens == 0
    assert orig.parse_stats.chunks_parsed >= 4
    # original still holds tokens, a bounded slice of the file at a time
    assert 0 < orig.parse_stats.peak_chunk_tokens * 4 <= cells

    # one NA and the chunk takes the token path, which holds every cell
    # of the file at once: the price chunked pays when C refuses
    with open(train) as fh:
        text = fh.read().split(",", 2)
    text[1] = "NA"
    with_na = tmp_path / "with_na.csv"
    with_na.write_text(",".join(text))
    fallback, _ = load_csv_timed(str(with_na), method="chunked")
    assert fallback.parse_stats.chunks_parsed == 1
    assert fallback.parse_stats.peak_chunk_tokens == cells
    assert np.isnan(fallback[1][0])
