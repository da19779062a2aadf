"""P1B3: drug-response growth regression (paper §2.1.4).

Full-scale geometry (Table 1): 900,100 train / 300,000 test samples,
only 1,000 elements per sample (the narrow-row file!), 1 epoch, batch
100 (9,001 steps/epoch), SGD at lr 0.001. This is the benchmark whose
batch-size *scaling strategies* (linear / square-root / cubic-root,
Fig 4b and Fig 10) the paper studies, because its sample count is huge.

The CANDLE P1B3 network is an MLP with optional "convolution-like"
(locally connected) layers: 1000-500-100-50 → 1 (≈1.56M params ≈
6.2 MB fp32 gradient — tiny allreduces, hence latency-sensitive).
"""

from __future__ import annotations

import numpy as np

from repro.candle.base import BenchmarkSpec, CandleBenchmark, LoadedData
from repro.candle.data import drug_response
from repro.nn import Dense, Dropout, Flatten, LocallyConnected1D, Sequential

__all__ = ["P1B3Benchmark", "P1B3_SPEC"]

P1B3_SPEC = BenchmarkSpec(
    name="P1B3",
    train_mb=318.0,
    test_mb=103.0,
    epochs=1,
    batch_size=100,
    learning_rate=0.001,
    optimizer="sgd",
    train_samples=900_100,
    test_samples=300_000,
    elements_per_sample=1000,
    task="regression",
    model_params_full=1_556_701,
    csv_cols=10,  # the drug-screen response file is narrow (353 B/row)
)


class P1B3Benchmark(CandleBenchmark):
    """The P1B3 regressor at a configurable scale.

    ``conv=True`` builds the "convolution-like" variant with a
    LocallyConnected1D front end, as CANDLE's P1B3 offers.
    """

    spec = P1B3_SPEC
    MIN_SAMPLES = 256

    def __init__(self, scale: float = 1.0, sample_scale=None, conv: bool = False):
        super().__init__(scale=scale, sample_scale=sample_scale)
        self.conv = bool(conv)

    def synth_arrays(self, rng: np.random.Generator) -> LoadedData:
        # one draw, then split (the response surface is deterministic,
        # but this keeps the convention uniform across benchmarks)
        f = self.features
        n_tr, n_te = self.train_samples, self.test_samples
        x, y = drug_response(rng, n_tr + n_te, f)
        return LoadedData(
            x[:n_tr], y[:n_tr, None], x[n_tr:], y[n_tr:, None]
        )

    def build_model(self, seed: int = 0, *, train=None) -> Sequential:
        f = self.features
        h1 = max(32, f)
        layers = []
        if self.conv:
            layers += [
                # reshape happens implicitly: model input is (f, 1)
                LocallyConnected1D(4, max(3, f // 16), activation="relu"),
                Flatten(),
            ]
        layers += [
            Dense(h1, activation="relu"),
            Dropout(0.1),
            Dense(max(16, h1 // 2), activation="relu"),
            Dense(max(8, h1 // 10), activation="relu"),
            Dense(1),
        ]
        model = Sequential(layers, name="p1b3")
        model.build((f, 1) if self.conv else (f,), seed=seed, train=train)
        return model

    def prepare_x(self, x: np.ndarray) -> np.ndarray:
        """Add the channel axis when the conv variant is active."""
        return x[..., None] if self.conv else x
