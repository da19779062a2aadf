"""P1B2: MLP cancer-type classifier over somatic SNPs (paper §2.1.3).

Full-scale geometry (Table 1): 2,700 train / 900 test samples, 28,204
SNP features, 768 epochs, batch 60 (45 steps/epoch), RMSprop at lr
0.001. The CANDLE P1B2 network is a five-layer regularized MLP
(1024-512-256 → softmax); its parameter count (≈29.5M ≈ 118 MB fp32
gradient) drives the simulator's allreduce cost.

Fig 9b of the paper: accuracy collapses when epochs/GPU drop below ~16
under strong scaling — reproduced here with real training.
"""

from __future__ import annotations

import numpy as np

from repro.candle.base import BenchmarkSpec, CandleBenchmark, LoadedData
from repro.candle.data import one_hot, snp_classification
from repro.nn import Activation, Dense, Dropout, Sequential, regularizers

__all__ = ["P1B2Benchmark", "P1B2_SPEC"]

P1B2_SPEC = BenchmarkSpec(
    name="P1B2",
    train_mb=162.0,
    test_mb=55.0,
    epochs=768,
    batch_size=60,
    learning_rate=0.001,
    optimizer="rmsprop",
    train_samples=2700,
    test_samples=900,
    elements_per_sample=28204,
    task="classification",
    num_classes=10,
    model_params_full=29_543_188,
    parse_difficulty=2.0,  # sparse SNP ints with NAs hit the object path often
)


class P1B2Benchmark(CandleBenchmark):
    """The P1B2 classifier at a configurable scale."""

    spec = P1B2_SPEC
    ONE_HOT_TARGET = True  # a label column, then the features

    def synth_arrays(self, rng: np.random.Generator) -> LoadedData:
        # one draw for train+test so both share the class marker sets
        f = self.features
        k = self.spec.num_classes
        n_tr, n_te = self.train_samples, self.test_samples
        x, y = snp_classification(rng, n_tr + n_te, f, num_classes=k)
        return LoadedData(
            x[:n_tr], one_hot(y[:n_tr], k), x[n_tr:], one_hot(y[n_tr:], k)
        )

    def build_model(self, seed: int = 0, *, train=None) -> Sequential:
        f = self.features
        h1 = max(32, f // 32)
        reg = regularizers.l2(1e-5)
        model = Sequential(
            [
                Dense(h1, activation="relu", kernel_regularizer=reg),
                Dropout(0.1),
                Dense(max(16, h1 // 2), activation="relu", kernel_regularizer=reg),
                Dense(max(8, h1 // 4), activation="relu", kernel_regularizer=reg),
                Dense(self.spec.num_classes),
                Activation("softmax"),
            ],
            name="p1b2",
        )
        model.build((f,), seed=seed, train=train)
        return model
