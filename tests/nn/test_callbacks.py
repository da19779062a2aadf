"""Callbacks: lifecycle order and the History a fit returns."""

from repro.nn import Activation, Dense, LambdaCallback, Sequential


def _model(x):
    m = Sequential([Dense(4, activation="tanh"), Dense(2), Activation("softmax")])
    m.build((x.shape[1],), seed=0)
    m.compile("sgd", "categorical_crossentropy", lr=0.1)
    return m


def test_lifecycle_event_order(tiny_classification):
    x, y = tiny_classification
    events = []
    cb = LambdaCallback(
        on_train_begin=lambda logs: events.append("train_begin"),
        on_train_end=lambda logs: events.append("train_end"),
        on_epoch_begin=lambda e, logs: events.append(f"epoch_begin:{e}"),
        on_epoch_end=lambda e, logs: events.append(f"epoch_end:{e}"),
        on_batch_begin=lambda b, logs: events.append("batch_begin"),
        on_batch_end=lambda b, logs: events.append("batch_end"),
    )
    _model(x).fit(x[:32], y[:32], batch_size=16, epochs=2, callbacks=[cb])
    assert events[0] == "train_begin"
    assert events[-1] == "train_end"
    assert events.count("epoch_begin:0") == 1
    assert events.count("batch_begin") == 4  # 2 batches x 2 epochs
    assert events.index("epoch_begin:0") < events.index("batch_begin")


def test_history_accumulates_epochs(tiny_classification):
    x, y = tiny_classification
    m = _model(x)
    h1 = m.fit(x, y, epochs=2)
    assert h1.epoch == [0, 1]
    assert len(h1.history["loss"]) == 2
