"""The ``Model`` interface every algorithm in :mod:`repro.core` consumes.

A model is a pure function of a flat parameter vector ``w`` and a data
batch ``(X, y)``: it reports the *mean* loss over the batch (the paper's
``F_n`` restricted to the batch, eq. (1)) and its gradient.  Keeping the
interface batch-first means the same three methods serve

* full local gradients  — ``gradient(w, X_n, y_n)`` (SVRG/SARAH anchor),
* stochastic gradients  — ``gradient(w, X_n[idx], y_n[idx])``,
* global metrics        — data-weighted sums across devices.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Tuple

import numpy as np

from repro.utils.rng import SeedLike
from repro.utils.validation import check_array_2d, check_same_length


class Model(ABC):
    """Abstract differentiable model over flat parameter vectors.

    A model is a pure function of ``(w, X, y)``: no result depends on
    an earlier call, so any instance of one architecture gives the same
    bits, and one instance may serve any number of clients in turn.
    The one exception is a cache whose reuse is checked bit for bit,
    such as :class:`~repro.nn.layers.conv2d.Conv2D`'s column reuse; it
    changes the cost of a call, never its result.  Layer caches are
    per-call state, so two calls running at once need two instances.
    """

    #: total number of scalar parameters (set by subclasses)
    num_parameters: int

    @abstractmethod
    def init_parameters(self, seed: SeedLike = None) -> np.ndarray:
        """Draw an initial flat parameter vector."""

    @abstractmethod
    def loss(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
        """Mean loss of ``w`` over the batch."""

    @abstractmethod
    def loss_and_gradient(
        self, w: np.ndarray, X: np.ndarray, y: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Mean loss and its gradient with respect to ``w``."""

    def gradient(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Mean-loss gradient (defaults to ``loss_and_gradient``).

        Subclasses may override it to skip computing the loss, provided
        the result keeps ``loss_and_gradient``'s bits.  Either way the
        returned array is fresh and owned by the caller: the estimators
        in :mod:`repro.core.estimators` combine gradients into it in
        place.
        """
        return self.loss_and_gradient(w, X, y)[1]

    @abstractmethod
    def predict(self, w: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Predicted labels (classification) or values (regression)."""

    def accuracy(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
        """Fraction of correct label predictions."""
        X = check_array_2d("X", X)
        y = np.asarray(y)
        check_same_length("X", X, "y", y)
        if X.shape[0] == 0:
            return float("nan")
        return float(np.mean(self.predict(w, X) == y))

    def smoothness(self, X: np.ndarray) -> Optional[float]:
        """Analytic per-sample smoothness ``L`` on this data, if known.

        Returns ``None`` when no closed form exists (e.g. neural nets) —
        callers should then fall back to
        :func:`repro.utils.smoothness.estimate_smoothness_power_iteration`.
        """
        del X
        return None

    def _check_batch(
        self, w: np.ndarray, X: np.ndarray, y: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Validate and coerce a ``(w, X, y)`` triple."""
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.num_parameters,):
            from repro.exceptions import DimensionMismatchError

            raise DimensionMismatchError(
                f"parameter vector shape {w.shape} != ({self.num_parameters},)"
            )
        X = check_array_2d("X", X)
        y = np.asarray(y)
        check_same_length("X", X, "y", y)
        return w, X, y
