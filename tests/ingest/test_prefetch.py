"""EpochPrefetcher: reproducible shuffling, overlap, clean shutdown."""

import threading
import time

import numpy as np
import pytest

from repro.ingest import (
    DEFAULT_SHARD_ROWS,
    EpochPrefetcher,
    LoaderConfig,
    epoch_shard_order,
    shard_shuffled_view,
)
from repro.nn import Sequential
from repro.nn.callbacks import Callback
from repro.nn.layers.core import Dense
from repro.telemetry import Tracer, tracing


def small_model(seed=1):
    model = Sequential([Dense(8, activation="relu"), Dense(1)])
    model.build((6,), seed=seed)
    model.compile("sgd", "mse")
    return model


@pytest.fixture
def xy():
    rng = np.random.default_rng(0)
    return rng.normal(size=(90, 6)), rng.normal(size=(90, 1))


# -- epoch_shard_order -------------------------------------------------------

class TestEpochShardOrder:
    def test_is_a_permutation(self):
        order = epoch_shard_order(103, 16, seed=3, epoch=0)
        assert sorted(order.tolist()) == list(range(103))

    def test_same_seed_same_order_across_ranks_and_runs(self):
        # every rank computes the order independently; agreement on
        # (seed, epoch) alone must give bit-equal orders
        per_rank = [
            epoch_shard_order(1120, DEFAULT_SHARD_ROWS, seed=7, epoch=4)
            for _rank in range(6)
        ]
        for order in per_rank[1:]:
            np.testing.assert_array_equal(order, per_rank[0])

    def test_epochs_and_seeds_differ(self):
        base = epoch_shard_order(640, 16, seed=7, epoch=0)
        assert not np.array_equal(base, epoch_shard_order(640, 16, 7, 1))
        assert not np.array_equal(base, epoch_shard_order(640, 16, 8, 0))

    def test_shards_stay_contiguous(self):
        order = epoch_shard_order(64, 16, seed=0, epoch=0)
        for start in range(0, 64, 16):
            block = order[start : start + 16]
            assert np.array_equal(block, np.arange(block[0], block[0] + 16))

    def test_zero_rows(self):
        assert epoch_shard_order(0, 16, 0, 0).size == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_rows=-1, shard_rows=4, seed=0, epoch=0),
            dict(n_rows=8, shard_rows=0, seed=0, epoch=0),
            dict(n_rows=8, shard_rows=4, seed=0, epoch=-1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            epoch_shard_order(**kwargs)


# -- LoaderConfig knobs ------------------------------------------------------

class TestLoaderConfigKnobs:
    def test_defaults(self):
        config = LoaderConfig()
        assert config.prefetch is False
        assert config.shuffle_seed is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(prefetch="yes"),
            dict(shuffle_seed=-1),
            dict(shuffle_seed=1.5),
            dict(shuffle_seed=True),
        ],
    )
    def test_invalid_knobs_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            LoaderConfig(**kwargs)

    def test_from_config_threads_knobs(self, xy):
        x, y = xy
        config = LoaderConfig(prefetch=True, shuffle_seed=9)
        prefetcher = EpochPrefetcher.from_config(x, y, epochs=2, config=config)
        try:
            ex, ey = prefetcher.next_epoch()
            ref_x, ref_y = shard_shuffled_view(x, y, seed=9, epoch=0)
            np.testing.assert_array_equal(ex, ref_x)
            np.testing.assert_array_equal(ey, ref_y)
        finally:
            prefetcher.close()


# -- the prefetcher ----------------------------------------------------------

class TestEpochPrefetcher:
    def test_fit_bit_identical_to_synchronous(self, xy):
        x, y = xy
        async_model, sync_model = small_model(), small_model()
        async_model.fit(
            EpochPrefetcher.from_arrays(x, y, epochs=3, seed=5), batch_size=16
        )
        sync_model.fit(
            EpochPrefetcher.from_arrays(x, y, epochs=3, seed=5, synchronous=True),
            batch_size=16,
        )
        for a, b in zip(async_model.get_weights(), sync_model.get_weights()):
            np.testing.assert_array_equal(a, b)
        stats = async_model.last_prefetch_stats
        assert stats is not None and stats.epochs == 3
        assert stats.load_s >= stats.hidden_s >= 0

    def test_fit_rejects_y_with_prefetcher(self, xy):
        x, y = xy
        prefetcher = EpochPrefetcher.from_arrays(x, y, epochs=1)
        try:
            with pytest.raises(ValueError, match="y must be None"):
                small_model().fit(prefetcher, y, batch_size=16)
        finally:
            prefetcher.close()

    def test_trainer_exception_mid_epoch_leaks_no_threads(self, xy):
        x, y = xy

        class Boom(RuntimeError):
            pass

        class Bomb(Callback):
            def on_batch_end(self, batch, logs=None):
                raise Boom

        before = threading.active_count()
        prefetcher = EpochPrefetcher.from_arrays(x, y, epochs=50, seed=1)
        with pytest.raises(Boom):
            small_model().fit(prefetcher, batch_size=16, callbacks=[Bomb()])
        assert prefetcher._closed
        # close joined the loader's worker
        assert "prefetch-loader" not in {t.name for t in threading.enumerate()}
        deadline = time.time() + 5
        while threading.active_count() > before and time.time() < deadline:
            time.sleep(0.01)
        assert threading.active_count() == before

    def test_loader_exception_reraised_at_next_epoch(self, xy):
        x, y = xy

        def loader(epoch):
            if epoch == 1:
                raise ValueError("loader died")
            return x, y

        prefetcher = EpochPrefetcher(loader, epochs=3)
        prefetcher.next_epoch()
        with pytest.raises(ValueError, match="loader died"):
            prefetcher.next_epoch()
        assert prefetcher._closed

    def test_close_is_idempotent_and_consumption_bounded(self, xy):
        x, y = xy
        prefetcher = EpochPrefetcher.from_arrays(x, y, epochs=1)
        prefetcher.next_epoch()
        with pytest.raises(RuntimeError, match="already consumed"):
            prefetcher.next_epoch()
        prefetcher.close()
        prefetcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            prefetcher.next_epoch()

    def test_iteration_and_len(self, xy):
        x, y = xy
        prefetcher = EpochPrefetcher.from_arrays(x, y, epochs=2, seed=3)
        assert len(prefetcher) == 2
        seen = [ex for ex, _ in prefetcher]
        assert len(seen) == 2 and prefetcher.epochs_remaining == 0
        ref_x, _ = shard_shuffled_view(x, y, seed=3, epoch=1)
        np.testing.assert_array_equal(seen[1], ref_x)

    def test_telemetry_spans_emitted(self, xy):
        x, y = xy
        tracer = Tracer(run_id="prefetch-test")
        with tracing(tracer):
            small_model().fit(
                EpochPrefetcher.from_arrays(x, y, epochs=2, seed=0),
                batch_size=32,
            )
        names = [s.name for s in tracer.spans]
        assert names.count("prefetch_hidden") == 2
        assert names.count("prefetch_wait") == 2
        hidden = [s for s in tracer.spans if s.name == "prefetch_hidden"]
        assert {s.attrs["epoch"] for s in hidden} == {0, 1}

    @pytest.mark.parametrize("bad", [dict(epochs=-1)])
    def test_constructor_validation(self, bad):
        kwargs = dict(epochs=1)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            EpochPrefetcher(lambda epoch: None, **kwargs)
