"""Training callbacks (Keras-style lifecycle hooks).

The Horovod integration point in the paper is a callback —
``hvd.BroadcastGlobalVariablesHook(0)`` is added to the callbacks list
to broadcast rank 0's initial weights — so the callback protocol here is
what :class:`repro.hvd.BroadcastGlobalVariablesCallback` plugs into.
"""

from __future__ import annotations

from typing import Iterable, Optional

__all__ = [
    "Callback",
    "CallbackList",
    "History",
    "LambdaCallback",
]


class Callback:
    """Base callback; the model is attached before training starts."""

    def __init__(self):
        self.model = None

    def set_model(self, model) -> None:
        self.model = model

    def on_train_begin(self, logs: dict | None = None) -> None: ...

    def on_train_end(self, logs: dict | None = None) -> None: ...

    def on_epoch_begin(self, epoch: int, logs: dict | None = None) -> None: ...

    def on_epoch_end(self, epoch: int, logs: dict | None = None) -> None: ...

    def on_batch_begin(self, batch: int, logs: dict | None = None) -> None: ...

    def on_batch_end(self, batch: int, logs: dict | None = None) -> None: ...


class CallbackList:
    """Dispatches lifecycle events to a list of callbacks, in order."""

    def __init__(self, callbacks: Optional[Iterable[Callback]] = None):
        self.callbacks: list[Callback] = list(callbacks or [])

    def append(self, cb: Callback) -> None:
        self.callbacks.append(cb)

    def set_model(self, model) -> None:
        for cb in self.callbacks:
            cb.set_model(model)

    def on_train_begin(self, logs=None):
        for cb in self.callbacks:
            cb.on_train_begin(logs)

    def on_train_end(self, logs=None):
        for cb in self.callbacks:
            cb.on_train_end(logs)

    def on_epoch_begin(self, epoch, logs=None):
        for cb in self.callbacks:
            cb.on_epoch_begin(epoch, logs)

    def on_epoch_end(self, epoch, logs=None):
        for cb in self.callbacks:
            cb.on_epoch_end(epoch, logs)

    def on_batch_begin(self, batch, logs=None):
        for cb in self.callbacks:
            cb.on_batch_begin(batch, logs)

    def on_batch_end(self, batch, logs=None):
        for cb in self.callbacks:
            cb.on_batch_end(batch, logs)


class History(Callback):
    """Records per-epoch logs; ``fit`` returns one, as Keras does."""

    def __init__(self):
        super().__init__()
        self.history: dict[str, list[float]] = {}
        self.epoch: list[int] = []

    def on_train_begin(self, logs=None):
        # Keras semantics: history accumulates across successive fits.
        self.history.setdefault("loss", [])

    def on_epoch_end(self, epoch, logs=None):
        self.epoch.append(epoch)
        for key, value in (logs or {}).items():
            self.history.setdefault(key, []).append(value)


class LambdaCallback(Callback):
    """Ad-hoc callback built from plain functions (Keras-compatible)."""

    def __init__(
        self,
        on_train_begin=None,
        on_train_end=None,
        on_epoch_begin=None,
        on_epoch_end=None,
        on_batch_begin=None,
        on_batch_end=None,
    ):
        super().__init__()
        noop2 = lambda a, b=None: None  # noqa: E731
        noop1 = lambda a=None: None  # noqa: E731
        self._on_train_begin = on_train_begin or noop1
        self._on_train_end = on_train_end or noop1
        self._on_epoch_begin = on_epoch_begin or noop2
        self._on_epoch_end = on_epoch_end or noop2
        self._on_batch_begin = on_batch_begin or noop2
        self._on_batch_end = on_batch_end or noop2

    def on_train_begin(self, logs=None):
        self._on_train_begin(logs)

    def on_train_end(self, logs=None):
        self._on_train_end(logs)

    def on_epoch_begin(self, epoch, logs=None):
        self._on_epoch_begin(epoch, logs)

    def on_epoch_end(self, epoch, logs=None):
        self._on_epoch_end(epoch, logs)

    def on_batch_begin(self, batch, logs=None):
        self._on_batch_begin(batch, logs)

    def on_batch_end(self, batch, logs=None):
        self._on_batch_end(batch, logs)
