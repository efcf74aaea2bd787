"""The default (and reference) array backend: plain NumPy + BLAS.

:class:`ArrayBackend` defines the narrow operation set the cohort
kernels need — 2-D and stacked matmul and contiguous gathers.
Implementations must be *value-exact*: a backend that returns different
bits than NumPy for the same inputs breaks the bit-identity contract
between the batched and sequential execution paths and will fail the
equivalence suite.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np


class ArrayBackend(ABC):
    """Minimal operation set behind which array math can be swapped."""

    #: identifier recorded in bench artifacts
    name: str = "abstract"

    @abstractmethod
    def matmul(
        self, a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """2-D (or broadcast-stacked) matrix product ``a @ b``."""

    @abstractmethod
    def batched_matmul(
        self, a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Stacked matmul ``(K, m, n) @ (K, n, p) -> (K, m, p)``."""

    @abstractmethod
    def gather_rows(
        self, src: np.ndarray, indices: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Row gather ``src[indices]`` (optionally into ``out``)."""


class NumpyBackend(ArrayBackend):
    """Reference backend: NumPy ufuncs + whatever BLAS NumPy links.

    Stacked matmuls dispatch one GEMM per slice through the same BLAS
    entry point the 2-D path uses, which is what makes the batched
    cohort kernels bit-identical to per-client solves.
    """

    name = "numpy"

    # shape: a (m, n) float64, b (n, p) float64 -> (m, p) float64
    def matmul(self, a, b, out=None):
        return np.matmul(a, b, out=out)

    # shape: a (K, m, n) float64, b (K, n, p) float64 -> (K, m, p) float64
    def batched_matmul(self, a, b, out=None):
        return np.matmul(a, b, out=out)

    # shape: src (N, D), indices (B,) -> (B, D)
    def gather_rows(self, src, indices, out=None):
        return np.take(src, indices, axis=0, out=out)
