"""Layer implementations for the repro.nn framework."""

from repro.nn.layers.dense import Dense
from repro.nn.layers.conv2d import Conv2D
from repro.nn.layers.pooling import MaxPool2D
from repro.nn.layers.activations import ReLU, Sigmoid, Tanh
from repro.nn.layers.flatten import Flatten

__all__ = ["Conv2D", "Dense", "Flatten", "MaxPool2D", "ReLU", "Sigmoid", "Tanh"]
