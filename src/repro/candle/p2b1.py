"""P2B1 (extension): molecular-dynamics autoencoder (Pilot2).

Not part of the paper's evaluation — §1 states the Pilot2 benchmarks
target "molecular dynamic simulations of proteins involved in cancer,
specifically the RAS protein", and §7/§2 claim "this parallelization
method can be applied to other CANDLE benchmarks such as the P2 and P3
benchmarks in a similar way". This module backs that claim: a CANDLE
P2B1-shaped autoencoder over MD-frame features that plugs into exactly
the same scaling plans, Horovod runner, and simulator as the P1 suite.

Geometry follows the CANDLE P2B1 benchmark (frames of ~4,900 packed
molecular features; batch 32; Adam), scaled like everything else.
"""

from __future__ import annotations

import numpy as np

from repro.candle.base import BenchmarkSpec, CandleBenchmark, LoadedData
from repro.nn import Dense, Dropout, Sequential

__all__ = ["P2B1Benchmark", "P2B1_SPEC"]

P2B1_SPEC = BenchmarkSpec(
    name="P2B1",
    train_mb=480.0,
    test_mb=120.0,
    epochs=100,
    batch_size=32,
    learning_rate=None,  # Adam default
    optimizer="adam",
    train_samples=10_000,
    test_samples=2_500,
    elements_per_sample=4900,
    task="autoencoder",
    # 4900-512-128-512-4900 dense autoencoder
    model_params_full=(4900 * 512 + 512)
    + (512 * 128 + 128)
    + (128 * 512 + 512)
    + (512 * 4900 + 4900),
)


def molecular_frames(
    rng: np.random.Generator, n: int, features: int, latent_dim: int = 12
) -> np.ndarray:
    """MD-like frames: a smooth latent trajectory decoded linearly.

    Molecular snapshots evolve continuously, so consecutive frames are
    correlated: the latent state is an AR(1) random walk, giving the
    autoencoder a genuinely low-dimensional manifold to compress.
    """
    z = np.empty((n, latent_dim))
    z[0] = rng.normal(size=latent_dim)
    steps = rng.normal(scale=0.3, size=(n - 1, latent_dim)) if n > 1 else None
    for i in range(1, n):
        z[i] = 0.95 * z[i - 1] + steps[i - 1]
    decode = rng.normal(size=(latent_dim, features)) / np.sqrt(latent_dim)
    x = np.tanh(z @ decode) + 0.05 * rng.standard_normal((n, features))
    # positions are bounded; squash into [0, 1] like packed coordinates
    return (x - x.min()) / (x.max() - x.min())


class P2B1Benchmark(CandleBenchmark):
    """The Pilot2 molecular autoencoder at a configurable scale."""

    spec = P2B1_SPEC

    @property
    def hidden(self) -> int:
        return max(16, self.features // 10)

    @property
    def latent(self) -> int:
        return max(4, self.features // 40)

    def synth_arrays(self, rng: np.random.Generator) -> LoadedData:
        f = self.features
        n_tr, n_te = self.train_samples, self.test_samples
        x = molecular_frames(rng, n_tr + n_te, f)
        x_tr, x_te = x[:n_tr], x[n_tr:]
        return LoadedData(x_tr, x_tr, x_te, x_te)

    def build_model(self, seed: int = 0, *, train=None) -> Sequential:
        f = self.features
        model = Sequential(
            [
                Dense(self.hidden, activation="relu"),
                Dropout(0.1),
                Dense(self.latent, activation="relu"),
                Dense(self.hidden, activation="relu"),
                Dense(f, activation="sigmoid"),  # coordinates in [0, 1]
            ],
            name="p2b1",
        )
        model.build((f,), seed=seed, train=train)
        return model

    def _target_matrix(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return x

    def _split_matrix(self, matrix: np.ndarray):
        return matrix, matrix
