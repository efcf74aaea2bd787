"""Loss heads: scalar loss + gradient with respect to the scores.

Each loss exposes ``value(scores, y)`` (mean over the batch) and
``value_and_grad(scores, y)``; gradients are already divided by the
batch size so that chaining ``grad`` through ``Module.backward`` yields
the gradient of the *mean* loss — the ``(1/D_n) sum_i f_i`` of eq. (1).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import DimensionMismatchError


def _check_scores_labels(scores: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    y = np.asarray(y)
    if scores.ndim != 2:
        raise DimensionMismatchError(f"scores must be 2-D, got shape {scores.shape}")
    if y.shape[0] != scores.shape[0]:
        raise DimensionMismatchError(
            f"labels length {y.shape[0]} != batch size {scores.shape[0]}"
        )
    return scores, y


def log_softmax_(
    scores: np.ndarray, work: np.ndarray, red: Optional[np.ndarray] = None
) -> np.ndarray:
    """Overwrite ``scores`` with its stable log-softmax over the last axis.

    ``work`` is same-shaped scratch (it ends up holding the exps of the
    shifted scores) and ``red`` an optional ``scores.shape[:-1] + (1,)``
    buffer for the two row reductions.  This is the one copy of the
    max-shift / exp / sum / log chain: every caller that needs
    log-probabilities runs it, so they all share its bits.  Returns
    ``scores``.
    """
    if red is None:
        red = np.empty(scores.shape[:-1] + (1,), dtype=np.float64)
    scores.max(axis=-1, keepdims=True, out=red)
    np.subtract(scores, red, out=scores)  # shifted
    np.exp(scores, out=work)
    work.sum(axis=-1, keepdims=True, out=red)
    # Safe: each shifted row contains a 0, so the sum of exps is >= 1
    # and the log never sees a value below 1.
    np.log(red, out=red)  # reprolint: disable=RL402
    return np.subtract(scores, red, out=scores)


def softmax_nll_(
    scores: np.ndarray,
    labels: np.ndarray,
    index: Tuple[np.ndarray, ...],
    grad: np.ndarray,
    red: Optional[np.ndarray] = None,
) -> np.ndarray:
    """In-place softmax + mean negative log-likelihood gradient.

    ``scores`` ``(..., B, c)`` is overwritten with its log-probabilities
    (:func:`log_softmax_`), and ``grad`` receives
    ``(softmax(scores) - onehot(labels)) / B`` per ``(B, c)`` slice.
    ``labels`` ``(..., B)`` are integer class ids and ``index`` the
    broadcastable index arrays of the leading axes, so that
    ``grad[index + (labels,)]`` addresses each row's label entry —
    ``(np.arange(B),)`` for a 2-D batch.  Returns ``grad``.
    """
    log_softmax_(scores, grad, red)
    np.exp(scores, out=grad)
    grad[index + (labels,)] -= 1.0
    grad /= scores.shape[-2]
    return grad


def mean_nll(
    log_probs: np.ndarray, labels: np.ndarray, index: Tuple[np.ndarray, ...]
) -> float:
    """Mean negative log-likelihood of ``labels`` under ``log_probs``."""
    return float(-log_probs[index + (labels,)].mean())


def log_softmax(scores: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax along the class axis (a new array)."""
    out = np.array(scores, dtype=np.float64, copy=True)
    return log_softmax_(out, np.empty_like(out))


def softmax(scores: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the class axis."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


class SoftmaxCrossEntropy:
    """Softmax + negative log likelihood over integer class labels."""

    def value(self, scores: np.ndarray, y: np.ndarray) -> float:
        scores, y = _check_scores_labels(scores, y)
        index = (np.arange(scores.shape[0]),)
        return mean_nll(log_softmax(scores), y.astype(int, copy=False), index)

    def value_and_grad(
        self, scores: np.ndarray, y: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        scores, y = _check_scores_labels(scores, y)
        log_probs = scores.copy()  # the chain runs in place; keep the caller's
        labels = y.astype(int, copy=False)
        index = (np.arange(scores.shape[0]),)
        grad = softmax_nll_(log_probs, labels, index, np.empty_like(log_probs))
        return mean_nll(log_probs, labels, index), grad


class MeanSquaredError:
    """``mean_i ||scores_i - y_i||^2 / 2`` (per-sample 1/2 factor).

    Accepts ``y`` as a vector (single-output regression) or a matrix
    matching ``scores``.
    """

    def value(self, scores: np.ndarray, y: np.ndarray) -> float:
        scores, y = _check_scores_labels(scores, y)
        y2 = y.reshape(scores.shape).astype(np.float64)
        return float(0.5 * np.mean(np.sum((scores - y2) ** 2, axis=1)))

    def value_and_grad(
        self, scores: np.ndarray, y: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        scores, y = _check_scores_labels(scores, y)
        y2 = y.reshape(scores.shape).astype(np.float64)
        diff = scores - y2
        loss = float(0.5 * np.mean(np.sum(diff**2, axis=1)))
        return loss, diff / scores.shape[0]


class MulticlassHinge:
    """Crammer–Singer multiclass hinge: ``max(0, 1 + max_{j!=y} s_j - s_y)``.

    The binary special case with scores ``(x^T w)`` matches the paper's
    SVM example ``max(0, 1 - y x^T w)``.  Subgradient at the hinge kink
    follows the convention of zero slope at exactly-zero margin violation.
    """

    def _margins(self, scores: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        n = scores.shape[0]
        idx = np.arange(n)
        correct = scores[idx, y.astype(int)]
        masked = scores.copy()
        masked[idx, y.astype(int)] = -np.inf
        runner_up = masked.argmax(axis=1)
        margins = 1.0 + scores[idx, runner_up] - correct
        return margins, runner_up

    def value(self, scores: np.ndarray, y: np.ndarray) -> float:
        scores, y = _check_scores_labels(scores, y)
        if scores.shape[1] < 2:
            raise DimensionMismatchError("MulticlassHinge needs >= 2 classes")
        margins, _ = self._margins(scores, y)
        return float(np.maximum(margins, 0.0).mean())

    def value_and_grad(
        self, scores: np.ndarray, y: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        scores, y = _check_scores_labels(scores, y)
        if scores.shape[1] < 2:
            raise DimensionMismatchError("MulticlassHinge needs >= 2 classes")
        n = scores.shape[0]
        idx = np.arange(n)
        margins, runner_up = self._margins(scores, y)
        active = margins > 0.0
        loss = float(np.maximum(margins, 0.0).mean())
        grad = np.zeros_like(scores)
        grad[idx[active], runner_up[active]] = 1.0
        grad[idx[active], y.astype(int)[active]] = -1.0
        grad /= n
        return loss, grad
