"""The L2 kernel penalty, Keras-style.

A regularizer contributes ``penalty(w)`` to the loss and ``grad(w)`` to
the kernel gradient. P1B2 in the paper uses L2 regularization on its MLP
("multilayer perceptron network with regularization"); it is the only
model that sets one.
"""

from __future__ import annotations

import numpy as np

__all__ = ["L2", "l2"]


class L2:
    """Ridge (weight decay) penalty ``l2 * sum(w^2)``."""

    def __init__(self, l2: float = 0.01):
        self.l2 = float(l2)

    def penalty(self, w):
        return self.l2 * float(np.sum(w * w)) if self.l2 else 0.0

    def grad(self, w):
        g = np.zeros_like(w)
        if self.l2:
            g += 2.0 * self.l2 * w
        return g

    def __repr__(self):
        return f"L2(l2={self.l2})"


def l2(l2: float = 0.01) -> L2:
    """Keras-style factory for an L2 regularizer."""
    return L2(l2)
