"""Benchmark base class and the Table 1 specification record.

A :class:`CandleBenchmark` knows how to

- generate shape-faithful synthetic data (in memory or as CSV files),
- load those files with either the original (``low_memory=True``) or
  the paper's optimized chunked method (:mod:`repro.ingest`),
- build its Keras-style model at a given scale, and say how every
  runner compiles it and feeds it (:meth:`CandleBenchmark.loss_and_metrics`,
  :meth:`CandleBenchmark.prepare`),
- and report its full-scale geometry (used analytically by the
  simulator: batch steps per epoch, gradient bytes, file sizes).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from repro.candle.data import one_hot
from repro.frame import write_csv
from repro.nn import Sequential

__all__ = ["BenchmarkSpec", "CandleBenchmark", "LoadedData"]


@dataclass(frozen=True)
class BenchmarkSpec:
    """One row of the paper's Table 1 (plus derived model geometry)."""

    name: str
    train_mb: float
    test_mb: float
    epochs: int
    batch_size: int
    learning_rate: Optional[float]
    optimizer: str
    train_samples: int
    test_samples: int
    elements_per_sample: int
    task: str  # 'classification' | 'autoencoder' | 'regression'
    num_classes: int = 0
    #: trainable parameters of the full-scale model (for allreduce bytes)
    model_params_full: int = 0
    #: bytes per gradient element on the wire (fp32 training)
    grad_elem_bytes: int = 4
    #: columns of the on-disk CSV, when it differs from the model's
    #: feature count. P1B3's 318 MB file physically cannot hold
    #: 900,100 x 1,000 values — its response file is narrow and the
    #: 1,000-element samples are assembled by joins, so the file is
    #: ~20 columns wide (consistent with its 353 B/row).
    csv_cols: Optional[int] = None
    #: slow-path block-cost multiplier capturing dtype mix ("the types
    #: of data samples impact the importing data's I/O performance ...
    #: significantly", §5) — fitted per benchmark against Table 3
    parse_difficulty: float = 1.0

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.train_samples <= 0 or self.elements_per_sample <= 0:
            raise ValueError("sample geometry must be positive")

    @property
    def steps_per_epoch(self) -> int:
        """Batch steps per epoch = total samples / batch size (§2.1)."""
        return max(1, self.train_samples // self.batch_size)

    def steps_per_epoch_at(self, batch_size: int) -> int:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        return max(1, self.train_samples // batch_size)

    @property
    def gradient_bytes(self) -> int:
        """Bytes allreduced per training step at full scale."""
        return self.model_params_full * self.grad_elem_bytes

    @property
    def train_bytes(self) -> int:
        return int(self.train_mb * 1e6)

    @property
    def test_bytes(self) -> int:
        return int(self.test_mb * 1e6)


@dataclass
class LoadedData:
    """Output of the data-loading phase."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    load_seconds: float = 0.0

    def __post_init__(self):
        if len(self.x_train) != len(self.y_train):
            raise ValueError("x_train/y_train length mismatch")
        if len(self.x_test) != len(self.y_test):
            raise ValueError("x_test/y_test length mismatch")


class CandleBenchmark:
    """Abstract CANDLE benchmark (subclasses fill in spec + model + data)."""

    spec: BenchmarkSpec

    #: floors so heavily scaled-down geometry stays trainable
    MIN_FEATURES = 16
    MIN_SAMPLES = 32

    #: file layout: target columns before the features (0: the target is
    #: the input), an int label one-hot to ``spec.num_classes`` (else the
    #: raw float target), and a trailing channel axis on x (Conv1D)
    TARGET_COLUMNS = 1
    ONE_HOT_TARGET = False
    CHANNEL_AXIS = False

    def __init__(self, scale: float = 1.0, sample_scale: Optional[float] = None):
        """``scale`` shrinks the feature dimension; ``sample_scale``
        (default: same as ``scale``) shrinks the sample count.

        Accuracy experiments keep ``sample_scale=1.0`` so batch steps
        per epoch match Table 1 (training dynamics depend on update
        *count*, not feature width), while shrinking features for speed.
        """
        if not 0.0 < scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {scale}")
        if sample_scale is not None and not 0.0 < sample_scale <= 1.0:
            raise ValueError(f"sample_scale must be in (0, 1], got {sample_scale}")
        self.scale = float(scale)
        self.sample_scale = float(sample_scale) if sample_scale is not None else self.scale

    # -- scaled geometry ------------------------------------------------------
    @property
    def features(self) -> int:
        return max(self.MIN_FEATURES, int(self.spec.elements_per_sample * self.scale))

    @property
    def train_samples(self) -> int:
        return max(self.MIN_SAMPLES, int(self.spec.train_samples * self.sample_scale))

    @property
    def test_samples(self) -> int:
        return max(self.MIN_SAMPLES // 2, int(self.spec.test_samples * self.sample_scale))

    def effective_batch_size(self) -> int:
        """Default batch size, clamped to the scaled sample count."""
        return min(self.spec.batch_size, self.train_samples)

    # -- subclass hooks ---------------------------------------------------------
    def synth_arrays(self, rng: np.random.Generator) -> LoadedData:
        """Generate learnable synthetic (x, y) arrays at this scale."""
        raise NotImplementedError

    def build_model(self, seed: int = 0, *, train=None) -> Sequential:
        """Build (but not compile) the benchmark's model at this scale.

        ``train`` (a :class:`repro.train.TrainOptions`) forwards to
        :meth:`repro.nn.Sequential.build`;
        ``TrainOptions(dtype="float32")`` halves memory traffic per
        step.
        """
        raise NotImplementedError

    def prepare_x(self, x: np.ndarray) -> np.ndarray:
        """Model-ready inputs from loaded rows (unchanged by default)."""
        return x

    # -- the runners' phase rules ---------------------------------------------
    def loss_and_metrics(self) -> Tuple[str, list]:
        """The loss and metric names every runner compiles the model with."""
        if self.spec.task == "classification":
            return "categorical_crossentropy", ["accuracy"]
        if self.spec.task == "autoencoder":
            return "mse", []
        return "mse", ["mae"]

    def prepare(self, data: LoadedData) -> LoadedData:
        """``data`` with both splits' inputs through :meth:`prepare_x`."""
        return replace(
            data,
            x_train=self.prepare_x(data.x_train),
            x_test=self.prepare_x(data.x_test),
        )

    # -- files ---------------------------------------------------------------------
    def file_names(self) -> tuple[str, str]:
        n = self.spec.name.lower()
        return (f"{n}_train.csv", f"{n}_test.csv")

    def write_files(self, directory, rng: Optional[np.random.Generator] = None) -> tuple[str, str]:
        """Write scaled synthetic train/test CSVs; returns their paths."""
        rng = rng or np.random.default_rng(0)
        data = self.synth_arrays(rng)
        train_name, test_name = self.file_names()
        train_path = os.path.join(str(directory), train_name)
        test_path = os.path.join(str(directory), test_name)
        write_csv(train_path, self._target_matrix(data.x_train, data.y_train))
        write_csv(test_path, self._target_matrix(data.x_test, data.y_test))
        return train_path, test_path

    def _target_matrix(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Rows written to CSV: [target column, features...]."""
        x = x[:, :, 0] if self.CHANNEL_AXIS else x
        if not self.TARGET_COLUMNS:
            return x
        target = np.argmax(y, axis=1).astype(np.float64) if self.ONE_HOT_TARGET else y[:, 0]
        return np.column_stack([target, x])

    def _split_frame(self, frame) -> Tuple[np.ndarray, np.ndarray]:
        """Inverse of :meth:`_target_matrix`: a loaded frame → float64
        ``(x, y)``. Each is a view of the frame's block when its columns
        are a run of one float64 block (a cache hit's mapping, read-only;
        a chunked load's concat block), else a block-by-block copy."""
        columns = np.arange(frame.shape[1])
        x = frame._matrix(columns[self.TARGET_COLUMNS:], np.float64)
        y = frame._matrix(columns[: self.TARGET_COLUMNS], np.float64) if self.TARGET_COLUMNS else x
        if self.ONE_HOT_TARGET:
            y = one_hot(y[:, 0].astype(np.int64), self.spec.num_classes)
        return (x[..., None] if self.CHANNEL_AXIS else x), y

    def from_frames(self, train_frame, test_frame) -> LoadedData:
        """Loaded DataFrames as model-ready arrays, views where the frames
        hold float64 (:meth:`_split_frame`): a consumer that writes in
        place copies first, as the scalers do."""
        return LoadedData(*self._split_frame(train_frame), *self._split_frame(test_frame))

    # -- introspection ---------------------------------------------------------------
    def describe(self) -> dict:
        """Table 1 row plus derived quantities (used by experiments)."""
        s = self.spec
        return {
            "benchmark": s.name,
            "train_mb": s.train_mb,
            "test_mb": s.test_mb,
            "epochs": s.epochs,
            "batch_size": s.batch_size,
            "learning_rate": s.learning_rate,
            "optimizer": s.optimizer,
            "train_samples": s.train_samples,
            "elements_per_sample": s.elements_per_sample,
            "steps_per_epoch": s.steps_per_epoch,
            "model_params_full": s.model_params_full,
        }

    def __repr__(self):
        return f"<{type(self).__name__} scale={self.scale}>"
