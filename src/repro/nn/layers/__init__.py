"""Neural-network layers: the Keras subset Table 1's four models use."""

from repro.nn.layers.base import Layer
from repro.nn.layers.conv import Conv1D, LocallyConnected1D, MaxPooling1D
from repro.nn.layers.core import Activation, Dense, Dropout, Flatten

__all__ = [
    "Layer",
    "Dense",
    "Dropout",
    "Activation",
    "Flatten",
    "Conv1D",
    "MaxPooling1D",
    "LocallyConnected1D",
]
