"""The paper's three data-loading methods (§5) over real benchmark files."""

import numpy as np
import pytest

from repro.candle import get_benchmark
from repro.ingest import DataSource, LoaderConfig, load_benchmark_data


@pytest.fixture(scope="module")
def nt3_files(tmp_path_factory):
    b = get_benchmark("nt3", scale=0.01, sample_scale=0.1)
    tmp = tmp_path_factory.mktemp("nt3")
    train, test = b.write_files(tmp, rng=np.random.default_rng(0))
    return b, train, test


@pytest.mark.parametrize("method", ["original", "chunked", "dask"])
def test_all_methods_load_identical_data(nt3_files, method):
    b, train, test = nt3_files
    ref = load_benchmark_data(b, train, test, method="chunked")
    got = load_benchmark_data(b, train, test, method=method)
    assert np.allclose(got.x_train, ref.x_train)
    assert np.allclose(got.y_train, ref.y_train)
    assert got.load_seconds > 0


def test_unknown_method_rejected(nt3_files):
    _, train, _ = nt3_files
    with pytest.raises(ValueError, match="unknown method"):
        DataSource(train).load(LoaderConfig(method="mmap"))


def test_chunked_method_honors_chunksize(nt3_files):
    _, train, _ = nt3_files
    small = DataSource(train).load(LoaderConfig(method="chunked", chunksize=7)).frame
    big = DataSource(train).load(LoaderConfig(method="chunked", chunksize=10**6)).frame
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
    orig = DataSource(train).load(LoaderConfig(method="original")).frame
    chunk = DataSource(train).load(LoaderConfig(method="chunked")).frame
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
    fallback = DataSource(with_na).load(LoaderConfig(method="chunked")).frame
    assert fallback.parse_stats.chunks_parsed == 1
    assert fallback.parse_stats.peak_chunk_tokens == cells
    assert np.isnan(fallback[1][0])
