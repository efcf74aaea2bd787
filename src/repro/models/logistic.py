"""Multinomial logistic regression (the paper's convex MLR task).

Parameters are a ``(d, k)`` weight matrix plus a ``k`` bias vector,
packed column-major into a flat vector via :class:`ParameterSpec`.
Loss is softmax cross-entropy, optionally with L2 weight decay.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.models.base import Model
from repro.nn.losses import SoftmaxCrossEntropy, mean_nll, softmax, softmax_nll_
from repro.utils.parameter_vector import ParameterSpec
from repro.utils.rng import SeedLike, as_generator
from repro.utils.smoothness import logistic_smoothness
from repro.utils.validation import check_positive, check_positive_int


class MultinomialLogisticModel(Model):
    """Softmax classifier over flat parameter vectors."""

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        *,
        l2: float = 0.0,
        fit_intercept: bool = True,
    ) -> None:
        self.num_features = check_positive_int("num_features", num_features)
        self.num_classes = check_positive_int("num_classes", num_classes, minimum=2)
        self.l2 = check_positive("l2", l2, strict=False)
        self.fit_intercept = bool(fit_intercept)
        shapes = [(self.num_features, self.num_classes)]
        if self.fit_intercept:
            shapes.append((self.num_classes,))
        self.spec = ParameterSpec(shapes)
        self.num_parameters = self.spec.size
        self._loss_head = SoftmaxCrossEntropy()

    def init_parameters(self, seed: SeedLike = None) -> np.ndarray:
        rng = as_generator(seed)
        return rng.standard_normal(self.num_parameters) * 0.01

    def _scores(self, w: np.ndarray, X: np.ndarray) -> np.ndarray:
        pieces = self.spec.unflatten(w)
        scores = X @ pieces[0]
        if self.fit_intercept:
            scores += pieces[1]
        return scores

    def loss(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
        w, X, y = self._check_batch(w, X, y)
        base = self._loss_head.value(self._scores(w, X), y)
        if not self.l2:
            return float(base)
        W = self.spec.piece(w, 0)
        return float(base + 0.5 * self.l2 * np.sum(W * W))

    def _loss_and_gradient(
        self, w: np.ndarray, X: np.ndarray, y: np.ndarray, with_loss: bool
    ) -> Tuple[Optional[float], np.ndarray]:
        """The one gradient body; the mean loss only when ``with_loss``."""
        w, X, y = self._check_batch(w, X, y)
        scores = self._scores(w, X)
        labels = y.astype(int, copy=False)
        index = (np.arange(X.shape[0]),)
        # ``scores`` is fresh, so the chain may turn it into log-probs.
        grad_scores = softmax_nll_(scores, labels, index, np.empty_like(scores))
        loss = mean_nll(scores, labels, index) if with_loss else None
        grad = np.empty(self.num_parameters, dtype=np.float64)
        grad_pieces = self.spec.unflatten(grad)
        np.matmul(X.T, grad_scores, out=grad_pieces[0])
        # The decay term is skipped entirely at l2 = 0 (adding 0.0 * W is
        # two full passes over the weights for a no-op); the batched
        # kernel skips under the same condition, preserving executor
        # bit-identity either way.
        if self.l2:
            W = self.spec.piece(w, 0)
            if with_loss:
                loss = float(loss + 0.5 * self.l2 * np.sum(W * W))
            grad_pieces[0] += self.l2 * W
        if self.fit_intercept:
            grad_scores.sum(axis=0, out=grad_pieces[1])
        return loss, grad

    def loss_and_gradient(
        self, w: np.ndarray, X: np.ndarray, y: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        return self._loss_and_gradient(w, X, y, with_loss=True)

    def gradient(self, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Mean-loss gradient, without computing the loss it would discard."""
        return self._loss_and_gradient(w, X, y, with_loss=False)[1]

    def predict(self, w: np.ndarray, X: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=np.float64)
        X = np.asarray(X, dtype=np.float64)
        return np.argmax(self._scores(w, X), axis=1)

    def predict_proba(self, w: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Class-membership probabilities (softmax of the scores)."""
        w = np.asarray(w, dtype=np.float64)
        X = np.asarray(X, dtype=np.float64)
        return softmax(self._scores(w, X))

    def smoothness(self, X: np.ndarray) -> float:
        return logistic_smoothness(X, self.num_classes) + self.l2
