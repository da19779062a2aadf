"""I/O model: decomposition, shape effects, contention."""

import pytest

from repro.candle.nt3 import NT3_SPEC
from repro.candle.p1b1 import P1B1_SPEC
from repro.candle.p1b3 import P1B3_SPEC
from repro.cluster.machine import SUMMIT, THETA
from repro.sim.iomodel import FileShape, IoModel, benchmark_files


@pytest.fixture
def io_summit():
    return IoModel(SUMMIT)


@pytest.fixture
def io_theta():
    return IoModel(THETA)


class TestFileShape:
    def test_nt3_geometry(self):
        train, test = benchmark_files(NT3_SPEC)
        assert train.rows == 1120
        assert train.cols == 60484  # label + features
        assert train.nbytes == 597_000_000
        assert test.rows == 280

    def test_p1b1_autoencoder_no_label_column(self):
        train, _ = benchmark_files(P1B1_SPEC)
        assert train.cols == 60484  # features only

    def test_p1b3_narrow_on_disk_geometry(self):
        train, _ = benchmark_files(P1B3_SPEC)
        assert train.cols == P1B3_SPEC.csv_cols  # narrow response file
        assert train.row_bytes < 1000

    def test_wide_rows_degenerate_internal_chunks(self):
        train, _ = benchmark_files(NT3_SPEC)
        # 533 KB rows >> 256 KB budget -> one row per chunk
        assert train.internal_chunks(256 << 10) == train.rows

    def test_narrow_rows_pack_many_per_chunk(self):
        train, _ = benchmark_files(P1B3_SPEC)
        assert train.internal_chunks(256 << 10) < train.rows / 100

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            FileShape("x", rows=0, cols=1, nbytes=1)


class TestMethodOrdering:
    @pytest.mark.parametrize("spec", [NT3_SPEC, P1B1_SPEC], ids=lambda s: s.name)
    def test_wide_files_original_much_slower(self, io_summit, spec):
        train, _ = benchmark_files(spec)
        slow = io_summit.parse_seconds(train, "original")
        fast = io_summit.parse_seconds(train, "chunked")
        assert slow > 3 * fast

    def test_dask_sits_between(self, io_summit):
        train, _ = benchmark_files(NT3_SPEC)
        slow = io_summit.parse_seconds(train, "original")
        dask = io_summit.parse_seconds(train, "dask")
        fast = io_summit.parse_seconds(train, "chunked")
        assert fast < dask < slow

    def test_p1b3_methods_near_parity(self, io_summit):
        train, _ = benchmark_files(P1B3_SPEC)
        slow = io_summit.parse_seconds(train, "original")
        fast = io_summit.parse_seconds(train, "chunked")
        assert 0.7 < slow / fast < 1.5

    def test_unknown_method(self, io_summit):
        train, _ = benchmark_files(NT3_SPEC)
        with pytest.raises(ValueError):
            io_summit.parse_seconds(train, "rdma")


class TestContention:
    def test_load_grows_with_clients(self, io_summit):
        t1 = io_summit.benchmark_load_seconds(NT3_SPEC, "original", nclients=1)
        t384 = io_summit.benchmark_load_seconds(NT3_SPEC, "original", nclients=384)
        assert t384 > t1
        # Summit's GPFS degrades only slightly (paper Fig 6a)
        assert t384 < 1.3 * t1

    def test_theta_contention_dwarfs_summit(self, io_summit, io_theta):
        """§5.1: Theta's 384-node loading is >4x Summit's."""
        s = io_summit.benchmark_load_seconds(NT3_SPEC, "original", nclients=384)
        t = io_theta.benchmark_load_seconds(NT3_SPEC, "original", nclients=384)
        assert t > 3.5 * s

    def test_theta_single_client_faster_than_summit(self, io_summit, io_theta):
        """Tables 3 vs 4: one client loads *faster* on Theta."""
        s = io_summit.benchmark_load_seconds(NT3_SPEC, "original", nclients=1)
        t = io_theta.benchmark_load_seconds(NT3_SPEC, "original", nclients=1)
        assert t < s

    def test_optimized_still_helps_under_contention(self, io_theta):
        orig = io_theta.benchmark_load_seconds(NT3_SPEC, "original", nclients=384)
        opt = io_theta.benchmark_load_seconds(NT3_SPEC, "chunked", nclients=384)
        assert orig > 2.5 * opt

    def test_invalid_clients(self, io_summit):
        train, _ = benchmark_files(NT3_SPEC)
        with pytest.raises(ValueError):
            io_summit.load_seconds(train, "original", nclients=0)


def test_table_row_keys(io_summit):
    row = io_summit.table_row(NT3_SPEC)
    assert set(row) == {
        "train_original",
        "train_chunked",
        "test_original",
        "test_chunked",
    }


class TestPrefetchTimeline:
    """The prefetch-overlapped load accounting (data plane v2)."""

    def test_fully_hidden_when_compute_dominates(self):
        from repro.sim.iomodel import exposed_load_seconds

        assert exposed_load_seconds(2.0, 100.0, efficiency=1.0) == 0.0

    def test_fully_exposed_when_no_compute(self):
        from repro.sim.iomodel import exposed_load_seconds

        assert exposed_load_seconds(2.0, 0.0) == 2.0

    def test_efficiency_discount(self):
        from repro.sim.iomodel import exposed_load_seconds

        assert exposed_load_seconds(10.0, 100.0, efficiency=0.8) == pytest.approx(2.0)

    def test_timeline_beats_synchronous(self):
        from repro.sim.iomodel import prefetch_timeline_seconds

        load, compute, epochs = 3.0, 10.0, 6
        overlapped = prefetch_timeline_seconds(load, compute, epochs, efficiency=1.0)
        synchronous = epochs * (load + compute)
        assert overlapped == pytest.approx(load + epochs * compute)
        assert overlapped < synchronous

    def test_timeline_first_epoch_always_exposed(self):
        from repro.sim.iomodel import prefetch_timeline_seconds

        assert prefetch_timeline_seconds(3.0, 10.0, 1, efficiency=1.0) == pytest.approx(13.0)
        assert prefetch_timeline_seconds(3.0, 10.0, 0) == 0.0

    @staticmethod
    def _hidden_fraction(load_s, compute_s, epochs, **kw):
        """Share of the ``epochs`` loads the timeline hides behind compute."""
        from repro.sim.iomodel import prefetch_timeline_seconds

        total = epochs * load_s
        if total <= 0:
            return 0.0
        timeline = prefetch_timeline_seconds(load_s, compute_s, epochs, **kw)
        return (total - (timeline - epochs * compute_s)) / total

    def test_hidden_fraction_bounded_by_first_epoch(self):
        # even with the load fully hidden in steady state, epoch 0 caps
        # the fraction at (E-1)/E — the benchmark's >= 0.8 gate needs
        # at least six epochs
        for epochs in (2, 5, 6, 10):
            frac = self._hidden_fraction(1.0, 100.0, epochs, efficiency=1.0)
            assert frac == pytest.approx((epochs - 1) / epochs)
        assert self._hidden_fraction(1.0, 100.0, 6, efficiency=1.0) >= 0.8
        assert self._hidden_fraction(1.0, 100.0, 4, efficiency=1.0) < 0.8

    def test_hidden_fraction_degenerate(self):
        assert self._hidden_fraction(0.0, 1.0, 4) == 0.0
        assert self._hidden_fraction(1.0, 1.0, 0) == 0.0

    def test_validation(self):
        from repro.sim.iomodel import exposed_load_seconds, prefetch_timeline_seconds

        with pytest.raises(ValueError):
            exposed_load_seconds(-1.0, 1.0)
        with pytest.raises(ValueError):
            exposed_load_seconds(1.0, 1.0, efficiency=0.0)
        with pytest.raises(ValueError):
            prefetch_timeline_seconds(1.0, 1.0, -1)

    def test_iomodel_prices_nt3_prefetched_epochs(self, io_summit):
        from repro.sim.iomodel import prefetch_timeline_seconds

        train, _ = benchmark_files(NT3_SPEC)
        load = io_summit.load_seconds(train, "cached")
        compute_s, epochs = 30.0, 6
        total = io_summit.prefetched_epochs_seconds(
            train, "cached", compute_s, epochs
        )
        assert total == pytest.approx(
            prefetch_timeline_seconds(load, compute_s, epochs)
        )
        assert total < epochs * (load + compute_s) + load
