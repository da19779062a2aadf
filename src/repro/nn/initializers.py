"""The weight initializer every kernel is built with: Keras's default,
``glorot_uniform``.

It takes an explicit ``rng`` so every model build is reproducible; the
SPMD ranks in :mod:`repro.hvd` rely on this to start from *different*
weights and verify that the initial broadcast makes them consistent,
exactly as the paper's ``hvd.BroadcastGlobalVariablesHook(0)`` does.
Biases start at zero.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["glorot_uniform"]


def _fans(shape: Sequence[int]) -> tuple[int, int]:
    """Compute (fan_in, fan_out) as Keras does.

    For a Dense kernel ``(in, out)`` these are the two dims; for a Conv1D
    kernel ``(width, in_ch, out_ch)`` the receptive field multiplies both.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) < 1:
        return 1, 1
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[:-2]))
    return shape[-2] * receptive, shape[-1] * receptive


def glorot_uniform(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """Xavier/Glorot uniform: U(-limit, limit), limit = sqrt(6/(fi+fo))."""
    fi, fo = _fans(shape)
    limit = np.sqrt(6.0 / (fi + fo))
    return rng.uniform(-limit, limit, size=shape)
