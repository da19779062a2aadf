"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

# `--hypothesis-profile=deep`: the local budget of the differential suites
# (tests/frame/test_parser_differential.py); tier-1 keeps each test's own
settings.register_profile("deep", max_examples=600, deadline=None)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic per-test RNG."""
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_classification(rng):
    """A small, clearly separable 2-class dataset: (x, y_onehot)."""
    n, f = 120, 12
    x = rng.normal(size=(n, f))
    labels = (x[:, :4].sum(axis=1) > 0).astype(int)
    y = np.eye(2)[labels]
    return x, y


@pytest.fixture
def csv_file(tmp_path, rng):
    """A small numeric CSV on disk; returns (path, matrix)."""
    from repro.frame import write_csv

    matrix = np.column_stack(
        [rng.integers(0, 3, size=50), rng.random((50, 9)) * 100.0]
    )
    path = tmp_path / "data.csv"
    write_csv(path, matrix)
    return str(path), matrix
