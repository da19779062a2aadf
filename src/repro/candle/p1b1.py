"""P1B1: sparse autoencoder over RNA-seq profiles (paper §2.1.2).

Full-scale geometry (Table 1): 2,700 train / 900 test samples, 60,484
features, 384 epochs, batch 100 (27 steps/epoch), Adam with its default
learning rate ("none" in Table 1). The CANDLE P1B1 network is a
2000-600-2000 MLP autoencoder; its true parameter count (≈244.4M ≈
978 MB fp32 gradient) is what the simulator allreduces per step.

The paper's Fig 8b reports training *loss* for this benchmark (an
autoencoder has no accuracy), increasing only slightly as epochs/GPU
shrink under strong scaling.
"""

from __future__ import annotations

import numpy as np

from repro.candle.base import BenchmarkSpec, CandleBenchmark, LoadedData
from repro.candle.data import expression_profiles
from repro.nn import Dense, Dropout, Sequential

__all__ = ["P1B1Benchmark", "P1B1_SPEC"]

P1B1_SPEC = BenchmarkSpec(
    name="P1B1",
    train_mb=771.0,
    test_mb=258.0,
    epochs=384,
    batch_size=100,
    learning_rate=None,  # Table 1: "none" → Adam default
    optimizer="adam",
    train_samples=2700,
    test_samples=900,
    elements_per_sample=60484,
    task="autoencoder",
    model_params_full=244_401_084,
    parse_difficulty=1.3,  # denser float encoding (4.7 B/cell) — Table 3 fit
)


class P1B1Benchmark(CandleBenchmark):
    """The P1B1 autoencoder at a configurable scale."""

    spec = P1B1_SPEC
    TARGET_COLUMNS = 0  # the files hold features only; the target is the input

    @property
    def hidden(self) -> int:
        return max(16, self.features // 16)

    @property
    def latent(self) -> int:
        return max(4, self.features // 128)

    def synth_arrays(self, rng: np.random.Generator) -> LoadedData:
        # one draw for train+test so both share the latent factor model
        f = self.features
        n_tr, n_te = self.train_samples, self.test_samples
        x = expression_profiles(rng, n_tr + n_te, f)
        x_tr, x_te = x[:n_tr], x[n_tr:]
        return LoadedData(x_tr, x_tr, x_te, x_te)

    def build_model(self, seed: int = 0, *, train=None) -> Sequential:
        f = self.features
        model = Sequential(
            [
                Dense(self.hidden, activation="sigmoid"),  # encoding layer
                Dropout(0.1),
                Dense(self.latent, activation="sigmoid"),  # bottleneck
                Dense(self.hidden, activation="sigmoid"),  # decoding layer
                Dense(f),  # reconstruction
            ],
            name="p1b1",
        )
        model.build((f,), seed=seed, train=train)
        return model
