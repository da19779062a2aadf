"""Fixtures for the ingest suite: real CSVs of both problematic shapes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.frame import write_csv


@pytest.fixture(scope="module")
def mixed_csv(tmp_path_factory):
    """A CSV with an int label column and float feature columns —
    the CANDLE file shape, plus dtype variety to stress promotion."""
    rng = np.random.default_rng(7)
    matrix = np.column_stack(
        [
            rng.integers(0, 5, size=397).astype(np.float64),
            rng.random((397, 23)) * 100.0,
            rng.integers(-1000, 1000, size=(397, 3)).astype(np.float64),
        ]
    )
    path = tmp_path_factory.mktemp("ingest") / "mixed.csv"
    write_csv(path, matrix)
    return str(path)


@pytest.fixture(scope="module")
def wide_csv(tmp_path_factory):
    """A wide-row file (many columns, few rows): the NT3 geometry that
    triggers the paper's slow-path degeneration."""
    rng = np.random.default_rng(11)
    matrix = np.column_stack(
        [rng.integers(0, 2, size=40).astype(np.float64), rng.random((40, 800))]
    )
    path = tmp_path_factory.mktemp("ingest") / "wide.csv"
    write_csv(path, matrix)
    return str(path)
