"""The kernel initializer: shape, scale, determinism."""

import numpy as np

from repro.nn import initializers


def test_shapes_and_determinism():
    a = initializers.glorot_uniform((32, 16), np.random.default_rng(3))
    b = initializers.glorot_uniform((32, 16), np.random.default_rng(3))
    assert a.shape == (32, 16)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = initializers.glorot_uniform((8, 8), np.random.default_rng(1))
    b = initializers.glorot_uniform((8, 8), np.random.default_rng(2))
    assert not np.array_equal(a, b)


def test_glorot_uniform_bounds():
    w = initializers.glorot_uniform((100, 100), np.random.default_rng(0))
    limit = np.sqrt(6.0 / 200)
    assert np.all(np.abs(w) <= limit)


def test_conv_kernel_fans_include_receptive_field():
    # kernel (width=5, in=3, out=7): fan_in = 15, fan_out = 35
    w = initializers.glorot_uniform((5, 3, 7), np.random.default_rng(0))
    limit = np.sqrt(6.0 / (15 + 35))
    assert np.all(np.abs(w) <= limit)
    assert np.abs(w).max() > limit * 0.8  # actually uses the range
