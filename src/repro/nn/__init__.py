"""A minimal, from-scratch NumPy neural-network framework.

This is the substrate that replaces the paper's TensorFlow models: it
provides exactly what FedProxVR needs — differentiable models whose
parameters pack into a flat vector and whose gradients are computed by
hand-written, finite-difference-verified backward passes.

Layers follow a ``forward``/``backward`` contract: ``forward`` caches
whatever ``backward`` needs; ``backward`` receives the upstream gradient
and writes parameter gradients into per-layer buffers while returning
the gradient with respect to its input.
"""

from repro.nn.module import Module
from repro.nn.sequential import Sequential
from repro.nn.layers.dense import Dense
from repro.nn.layers.conv2d import Conv2D
from repro.nn.layers.pooling import MaxPool2D
from repro.nn.layers.activations import ReLU, Sigmoid, Tanh
from repro.nn.layers.flatten import Flatten
from repro.nn.losses import (
    SoftmaxCrossEntropy,
    MeanSquaredError,
    MulticlassHinge,
)
from repro.nn import initializers

__all__ = [
    "Conv2D",
    "Dense",
    "Flatten",
    "MaxPool2D",
    "MeanSquaredError",
    "Module",
    "MulticlassHinge",
    "ReLU",
    "Sequential",
    "Sigmoid",
    "SoftmaxCrossEntropy",
    "Tanh",
    "initializers",
]
