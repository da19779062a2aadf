"""Sequential model: lifecycle, fit/evaluate/predict, weights API."""

import numpy as np
import pytest

from repro.candle import get_benchmark
from repro.nn import Activation, Dense, Dropout, Sequential
from repro.train import TrainOptions


def _model(seed=0, units=8):
    m = Sequential([Dense(units, activation="tanh"), Dense(2), Activation("softmax")])
    m.build((12,), seed=seed)
    m.compile("sgd", "categorical_crossentropy", metrics=["accuracy"], lr=0.5)
    return m


class TestLifecycle:
    def test_build_required_before_use(self, rng):
        m = Sequential([Dense(3)])
        with pytest.raises(RuntimeError, match="not built"):
            m.predict(rng.normal(size=(2, 4)))

    def test_compile_required_before_fit(self, tiny_classification):
        x, y = tiny_classification
        m = Sequential([Dense(2)])
        m.build((x.shape[1],))
        with pytest.raises(RuntimeError, match="not compiled"):
            m.fit(x, y)

    def test_double_build_rejected(self):
        m = Sequential([Dense(2)])
        m.build((4,))
        with pytest.raises(RuntimeError, match="already built"):
            m.build((4,))

    def test_add_after_build_rejected(self):
        m = Sequential([Dense(2)])
        m.build((4,))
        with pytest.raises(RuntimeError):
            m.add(Dense(3))

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Sequential().build((4,))

    def test_positional_layer_names_deterministic(self):
        a, b = _model(), _model()
        assert [l.name for l in a.layers] == [l.name for l in b.layers]
        assert list(a.named_parameters()) == list(b.named_parameters())


class TestTraining:
    def test_learns_separable_data(self, tiny_classification):
        x, y = tiny_classification
        m = Sequential([Dense(16, activation="tanh"), Dense(2), Activation("softmax")])
        m.build((x.shape[1],), seed=1)
        m.compile("adam", "categorical_crossentropy", metrics=["accuracy"], lr=0.02)
        h = m.fit(x, y, batch_size=16, epochs=25)
        assert h.history["accuracy"][-1] > 0.9
        assert h.history["loss"][-1] < h.history["loss"][0]

    def test_history_contains_val_metrics(self, tiny_classification):
        x, y = tiny_classification
        m = _model()
        h = m.fit(x, y, epochs=2, validation_data=(x[:20], y[:20]))
        assert "val_loss" in h.history
        assert "val_accuracy" in h.history
        assert len(h.history["loss"]) == 2

    def test_no_shuffle_is_deterministic(self, tiny_classification):
        x, y = tiny_classification
        h1 = _model(seed=5).fit(x, y, epochs=3, shuffle=False)
        h2 = _model(seed=5).fit(x, y, epochs=3, shuffle=False)
        assert h1.history["loss"] == h2.history["loss"]

    def test_fit_validates_inputs(self, tiny_classification):
        x, y = tiny_classification
        m = _model()
        with pytest.raises(ValueError, match="length"):
            m.fit(x, y[:-1])
        with pytest.raises(ValueError, match="batch_size"):
            m.fit(x, y, batch_size=0)
        with pytest.raises(ValueError, match="empty"):
            m.fit(x[:0], y[:0])

    def test_train_on_batch_returns_logs(self, tiny_classification):
        x, y = tiny_classification
        logs = _model().train_on_batch(x[:10], y[:10])
        assert set(logs) == {"loss", "accuracy"}


class TestWeights:
    def test_get_set_roundtrip(self, tiny_classification):
        x, y = tiny_classification
        a, b = _model(seed=1), _model(seed=2)
        assert not np.allclose(a.get_weights()[0], b.get_weights()[0])
        b.set_weights(a.get_weights())
        assert all(
            np.array_equal(p, q) for p, q in zip(a.get_weights(), b.get_weights())
        )

    def test_set_weights_in_place(self):
        m = _model()
        before = list(m.named_parameters().values())
        m.set_weights([w * 0 for w in m.get_weights()])
        after = list(m.named_parameters().values())
        assert all(x is y for x, y in zip(before, after))  # same arrays
        assert all(np.all(w == 0) for w in after)

    def test_set_weights_shape_validation(self):
        m = _model()
        ws = m.get_weights()
        with pytest.raises(ValueError, match="expected"):
            m.set_weights(ws[:-1])
        ws[0] = ws[0].T.copy()
        with pytest.raises(ValueError, match="shape"):
            m.set_weights(ws)

    def test_count_params(self):
        m = _model(units=8)
        assert m.count_params() == (12 * 8 + 8) + (8 * 2 + 2)


class TestInference:
    def test_predict_batched_equals_unbatched(self, tiny_classification):
        x, _ = tiny_classification
        m = _model()
        assert np.allclose(m.predict(x, batch_size=7), m.predict(x, batch_size=1000))

    def test_predict_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            _model().predict(np.empty((0, 12)))

    def test_dropout_off_at_predict(self, rng):
        m = Sequential([Dense(8), Dropout(0.9), Dense(2)])
        m.build((4,), seed=0)
        m.compile("sgd", "mse")
        x = rng.normal(size=(5, 4))
        assert np.allclose(m.predict(x), m.predict(x))

    def test_evaluate_returns_loss_and_metrics(self, tiny_classification):
        x, y = tiny_classification
        out = _model().evaluate(x, y)
        assert set(out) == {"loss", "accuracy"}

    def test_summary_mentions_layers(self):
        s = _model().summary()
        assert "dense_0" in s and "Total params" in s


def test_initial_epoch_offsets_history(tiny_classification):
    x, y = tiny_classification
    m = _model()
    h = m.fit(x, y, epochs=2, initial_epoch=5)
    assert h.epoch == [5, 6]


@pytest.mark.parametrize("batch_size", [8, 256], ids=["tiled", "one_tile"])
@pytest.mark.parametrize("dtype,cast_y", [("float64", False), ("float32", True), ("float32", False)])
@pytest.mark.parametrize("name,metrics", [("nt3", ["accuracy"]), ("p1b1", ["mae"])])
def test_evaluate_is_loss_and_metrics_over_the_predictions(name, metrics, dtype, cast_y, batch_size):
    """``evaluate`` reads the metrics first and then lets the loss work in
    the prediction array (when ``y`` shares its shape and dtype); its
    values must be the bits of the loss and metrics over a prediction
    array of their own. NT3 and P1B1 shapes, ``y`` of the model's dtype
    or not, one ``predict`` tile or several."""
    bench = get_benchmark(name, scale=0.01, sample_scale=0.05)
    data = bench.prepare(bench.synth_arrays(np.random.default_rng(3)))
    model = bench.build_model(seed=1, train=TrainOptions(dtype=dtype))
    model.compile("adam", bench.loss_and_metrics()[0], metrics=metrics)
    x = data.x_test.astype(dtype)
    y = data.y_test.astype(dtype) if cast_y else data.y_test
    got = model.evaluate(x, y, batch_size=batch_size)
    y_pred = model.predict(x, batch_size=batch_size)
    want = {"loss": model.loss.value(y, y_pred) + model._regularization_penalty()}
    for key, fn in zip(model.metric_names, model.metrics):
        want[key] = fn(y, y_pred)
    assert list(got) == list(want) == ["loss", *metrics]
    assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()
