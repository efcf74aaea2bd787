"""Flat parameter-vector packing.

Every algorithm in :mod:`repro.core` operates on a single flat
``float64`` vector ``w`` (the paper's :math:`w \\in \\mathbb{R}^l`).
Models with structured parameters (weight matrices, conv kernels,
biases) pack and unpack through a :class:`ParameterSpec`, which records
shapes once and then provides allocation-free views where possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.exceptions import DimensionMismatchError


def flatten_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate a sequence of arrays into one flat float64 vector."""
    if not arrays:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])


def unflatten_vector(
    vector: np.ndarray, shapes: Sequence[Tuple[int, ...]]
) -> List[np.ndarray]:
    """Split a flat vector back into arrays of the given shapes.

    The returned arrays are *views* into ``vector`` whenever ``vector``
    is contiguous, so in-place mutation of a piece mutates the vector —
    this is deliberate and is what lets layer backward passes write
    gradients straight into a preallocated flat buffer.  Code that
    unflattens repeatedly should hold a :class:`ParameterSpec`, which
    does the size arithmetic once.
    """
    return ParameterSpec(list(shapes)).unflatten(vector)


@dataclass
class ParameterSpec:
    """Shapes and offsets of a model's structured parameters.

    Parameters
    ----------
    shapes:
        Ordered shapes of the structured parameter arrays.
    """

    shapes: List[Tuple[int, ...]]
    offsets: List[int] = field(init=False)
    size: int = field(init=False)
    _layout: List[Tuple[int, int, Tuple[int, ...]]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.shapes = [tuple(int(d) for d in s) for s in self.shapes]
        sizes = [int(np.prod(s, dtype=np.int64)) for s in self.shapes]
        self.offsets = list(np.concatenate([[0], np.cumsum(sizes)])[:-1].astype(int))
        self.size = int(sum(sizes))
        # (start, stop, shape) per piece, so unflatten/piece slice a
        # vector without redoing any size arithmetic per call.
        self._layout = [
            (int(start), int(start) + size, shape)
            for start, size, shape in zip(self.offsets, sizes, self.shapes)
        ]

    def flatten(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Pack structured arrays into a new flat vector."""
        if len(arrays) != len(self.shapes):
            raise DimensionMismatchError(
                f"expected {len(self.shapes)} arrays, got {len(arrays)}"
            )
        for a, s in zip(arrays, self.shapes):
            if tuple(np.shape(a)) != s:
                raise DimensionMismatchError(
                    f"array of shape {np.shape(a)} does not match spec shape {s}"
                )
        return flatten_arrays(arrays)

    def unflatten(self, vector: np.ndarray) -> List[np.ndarray]:
        """Unpack a flat vector into views shaped per the spec."""
        vector = np.asarray(vector)
        if vector.ndim != 1 or vector.size != self.size:
            raise DimensionMismatchError(
                f"vector of size {vector.size} cannot be unflattened into "
                f"shapes {self.shapes} (need {self.size})"
            )
        return [vector[start:stop].reshape(shape) for start, stop, shape in self._layout]

    def zeros(self) -> np.ndarray:
        """A fresh zero vector of the right total size."""
        return np.zeros(self.size, dtype=np.float64)

    def piece(self, vector: np.ndarray, index: int) -> np.ndarray:
        """View of the ``index``-th structured piece of ``vector``."""
        if not 0 <= index < len(self.shapes):
            raise IndexError(f"piece index {index} out of range")
        start, stop, shape = self._layout[index]
        return np.asarray(vector)[start:stop].reshape(shape)
