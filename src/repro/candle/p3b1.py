"""P3B1 (extension): clinical-report classifier (Pilot3).

Not part of the paper's evaluation — the Pilot3 benchmarks "predict
cancer recurrence in patients based on patient-related data" (§1),
specifically classifying free-text pathology reports (primary site,
histology) from bag-of-words features. Included to back the paper's
claim that its parallelization method extends to P3 unchanged.

Geometry follows CANDLE P3B1: ~400-dimensional document features, a
shared MLP trunk, and a 13-way primary-site softmax.
"""

from __future__ import annotations

import numpy as np

from repro.candle.base import BenchmarkSpec, CandleBenchmark, LoadedData
from repro.candle.data import one_hot
from repro.nn import Activation, Dense, Dropout, Sequential

__all__ = ["P3B1Benchmark", "P3B1_SPEC"]

P3B1_SPEC = BenchmarkSpec(
    name="P3B1",
    train_mb=22.0,
    test_mb=6.0,
    epochs=20,
    batch_size=10,
    learning_rate=0.01,
    optimizer="sgd",
    train_samples=4000,
    test_samples=1000,
    elements_per_sample=400,
    task="classification",
    num_classes=13,
    # 400-1024-256 trunk + 13-way head
    model_params_full=(400 * 1024 + 1024)
    + (1024 * 256 + 256)
    + (256 * 13 + 13),
)


def clinical_reports(
    rng: np.random.Generator,
    n: int,
    features: int,
    num_classes: int = 13,
    words_per_doc: int = 60,
) -> tuple[np.ndarray, np.ndarray]:
    """Bag-of-words pathology-report features with site-specific topics.

    Each class has its own word distribution (a Dirichlet topic); each
    document draws ``words_per_doc`` word counts from its class topic
    mixed with a background topic. Features are normalized counts —
    sparse, non-negative, and genuinely class-separable, like TF
    vectors from real reports.
    """
    labels = np.arange(n) % num_classes
    rng.shuffle(labels)
    background = rng.dirichlet(np.full(features, 0.1))
    topics = rng.dirichlet(np.full(features, 0.05), size=num_classes)
    x = np.empty((n, features))
    for c in range(num_classes):
        rows = np.nonzero(labels == c)[0]
        p = 0.6 * topics[c] + 0.4 * background
        counts = rng.multinomial(words_per_doc, p, size=rows.size)
        x[rows] = counts / words_per_doc
    return x, labels


class P3B1Benchmark(CandleBenchmark):
    """The Pilot3 report classifier at a configurable scale."""

    spec = P3B1_SPEC

    def synth_arrays(self, rng: np.random.Generator) -> LoadedData:
        f = self.features
        k = self.spec.num_classes
        n_tr, n_te = self.train_samples, self.test_samples
        x, y = clinical_reports(rng, n_tr + n_te, f, num_classes=k)
        return LoadedData(
            x[:n_tr], one_hot(y[:n_tr], k), x[n_tr:], one_hot(y[n_tr:], k)
        )

    def build_model(self, seed: int = 0, *, train=None) -> Sequential:
        f = self.features
        h1 = max(64, f * 2)
        model = Sequential(
            [
                Dense(h1, activation="relu"),
                Dropout(0.2),
                Dense(max(32, h1 // 4), activation="relu"),
                Dense(self.spec.num_classes),
                Activation("softmax"),
            ],
            name="p3b1",
        )
        model.build((f,), seed=seed, train=train)
        return model

    def _target_matrix(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        labels = np.argmax(y, axis=1).astype(np.float64)
        return np.column_stack([labels, x])

    def _split_matrix(self, matrix: np.ndarray):
        labels = matrix[:, 0].astype(np.int64)
        return matrix[:, 1:], one_hot(labels, self.spec.num_classes)
