"""NT3: 1-D convolutional normal/tumor tissue classifier (paper §2.1.1).

Full-scale geometry (Table 1): 1,120 train / 280 test samples, 60,483
expression features + 1 label column, 384 epochs, batch 20, SGD at
lr 0.001, 56 batch steps/epoch. The architecture follows the CANDLE
NT3 model — Conv1D/MaxPooling stacks into dense layers with dropout and
a 2-way softmax — at a width that scales with the feature count.

``model_params_full`` is the CANDLE NT3 network's true parameter count
(two conv layers + the 774k→200 dense bottleneck ≈ 154.9M parameters ≈
620 MB of fp32 gradient), which is what the simulator's allreduce cost
uses per step.
"""

from __future__ import annotations

import numpy as np

from repro.candle.base import BenchmarkSpec, CandleBenchmark, LoadedData
from repro.candle.data import expression_classification, one_hot
from repro.nn import (
    Activation,
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    MaxPooling1D,
    Sequential,
)

__all__ = ["NT3Benchmark", "NT3_SPEC"]

NT3_SPEC = BenchmarkSpec(
    name="NT3",
    train_mb=597.0,
    test_mb=150.0,
    epochs=384,
    batch_size=20,
    learning_rate=0.001,
    optimizer="sgd",
    train_samples=1120,
    test_samples=280,
    elements_per_sample=60483,
    task="classification",
    num_classes=2,
    model_params_full=154_922_918,
)


class NT3Benchmark(CandleBenchmark):
    """The NT3 benchmark at a configurable scale."""

    spec = NT3_SPEC
    ONE_HOT_TARGET = True  # a label column, then the features
    CHANNEL_AXIS = True  # Conv1D wants (steps, channels)

    def synth_arrays(self, rng: np.random.Generator) -> LoadedData:
        # one draw for train+test so both share the generative model
        # (informative blocks and class directions), then split
        f = self.features
        n_tr, n_te = self.train_samples, self.test_samples
        x, y = expression_classification(rng, n_tr + n_te, f, num_classes=2)
        return LoadedData(
            x[:n_tr, :, None],
            one_hot(y[:n_tr], 2),
            x[n_tr:, :, None],
            one_hot(y[n_tr:], 2),
        )

    def build_model(self, seed: int = 0, *, train=None) -> Sequential:
        f = self.features
        k1 = max(3, min(20, f // 64))
        k2 = max(3, min(10, f // 128))
        pool2 = max(2, min(10, f // 128))
        model = Sequential(
            [
                Conv1D(16, k1, activation="relu"),
                MaxPooling1D(2),
                Conv1D(16, k2, activation="relu"),
                MaxPooling1D(pool2),
                Flatten(),
                Dense(64, activation="relu"),
                Dropout(0.1),
                Dense(16, activation="relu"),
                Dropout(0.1),
                Dense(2),
                Activation("softmax"),
            ],
            name="nt3",
        )
        model.build((f, 1), seed=seed, train=train)
        return model
