"""Tests for repro.nn.losses."""

import numpy as np
import pytest

from repro.exceptions import DimensionMismatchError
from repro.nn.losses import (
    MeanSquaredError,
    MulticlassHinge,
    SoftmaxCrossEntropy,
    log_softmax,
    softmax,
    softmax_nll_,
)


class TestSoftmaxStability:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        p = softmax(rng.standard_normal((5, 4)) * 10)
        np.testing.assert_allclose(p.sum(axis=1), 1.0)

    def test_softmax_huge_logits_finite(self):
        p = softmax(np.array([[1e4, 0.0, -1e4]]))
        assert np.all(np.isfinite(p))
        assert p[0, 0] == pytest.approx(1.0)

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(1)
        s = rng.standard_normal((6, 3))
        np.testing.assert_allclose(log_softmax(s), np.log(softmax(s)), atol=1e-12)


class TestSoftmaxCrossEntropy:
    def test_uniform_scores_give_log_k(self):
        loss = SoftmaxCrossEntropy().value(np.zeros((4, 5)), np.zeros(4, dtype=int))
        assert loss == pytest.approx(np.log(5))

    def test_perfect_prediction_near_zero(self):
        scores = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss = SoftmaxCrossEntropy().value(scores, np.array([0, 1]))
        assert loss == pytest.approx(0.0, abs=1e-10)

    def test_grad_matches_finite_difference(self, fd_gradient):
        rng = np.random.default_rng(2)
        scores = rng.standard_normal((3, 4))
        y = rng.integers(0, 4, 3)
        head = SoftmaxCrossEntropy()
        _, grad = head.value_and_grad(scores, y)
        fd = fd_gradient(
            lambda s: head.value(s.reshape(3, 4), y), scores.ravel()
        ).reshape(3, 4)
        np.testing.assert_allclose(grad, fd, atol=1e-7)

    def test_grad_rows_sum_to_zero(self):
        rng = np.random.default_rng(3)
        scores = rng.standard_normal((5, 3))
        y = rng.integers(0, 3, 5)
        _, grad = SoftmaxCrossEntropy().value_and_grad(scores, y)
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_label_batch_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            SoftmaxCrossEntropy().value(np.zeros((3, 2)), np.zeros(4, dtype=int))


def _reference_log_softmax(scores):
    shifted = scores - scores.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _reference_value_and_grad(scores, y):
    """The allocating log-softmax + NLL formulation, op for op."""
    n = scores.shape[0]
    ls = _reference_log_softmax(scores)
    idx = np.arange(n)
    loss = float(-ls[idx, y.astype(int)].mean())
    grad = np.exp(ls)
    grad[idx, y.astype(int)] -= 1.0
    grad /= n
    return loss, grad


class TestInPlaceChainBits:
    """``log_softmax``, ``value`` and ``value_and_grad`` run the shared
    in-place chain on a copy: same bits as the allocating formulation,
    and the caller's ``scores`` are never written."""

    @pytest.mark.parametrize("shape", [(1, 2), (32, 10), (150, 10), (7, 3)])
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    @pytest.mark.parametrize("float_labels", [False, True])
    def test_matches_reference_and_leaves_scores(self, shape, scale, float_labels):
        rng = np.random.default_rng(shape[0] * shape[1])
        scores = rng.standard_normal(shape) * scale
        y = rng.integers(0, shape[1], shape[0])
        if float_labels:
            y = y.astype(np.float64)
        before = scores.tobytes()
        head = SoftmaxCrossEntropy()
        ref_loss, ref_grad = _reference_value_and_grad(scores, y)

        loss, grad = head.value_and_grad(scores, y)
        assert grad.tobytes() == ref_grad.tobytes()
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        value = head.value(scores, y)
        assert np.float64(value).tobytes() == np.float64(ref_loss).tobytes()
        ls = log_softmax(scores)
        assert ls.tobytes() == _reference_log_softmax(scores).tobytes()
        assert scores.tobytes() == before

    def test_stacked_chain_matches_each_slice(self):
        """Over a (K, B, c) stack the chain runs per (B, c) slice."""
        rng = np.random.default_rng(9)
        K, B, c = 3, 5, 4
        stack = rng.standard_normal((K, B, c))
        labels = rng.integers(0, c, (K, B))
        grad = np.empty_like(stack)
        index = (np.arange(K)[:, None], np.arange(B)[None, :])
        log_probs = stack.copy()
        softmax_nll_(log_probs, labels, index, grad, np.empty((K, B, 1)))
        for k in range(K):
            _, ref_grad = _reference_value_and_grad(stack[k], labels[k])
            assert grad[k].tobytes() == ref_grad.tobytes()
            assert log_probs[k].tobytes() == _reference_log_softmax(stack[k]).tobytes()


class TestMeanSquaredError:
    def test_zero_residual(self):
        y = np.array([1.0, 2.0])
        assert MeanSquaredError().value(y.reshape(2, 1), y) == 0.0

    def test_value_formula(self):
        scores = np.array([[1.0], [0.0]])
        y = np.array([0.0, 0.0])
        assert MeanSquaredError().value(scores, y) == pytest.approx(0.25)

    def test_grad_matches_finite_difference(self, fd_gradient):
        rng = np.random.default_rng(4)
        scores = rng.standard_normal((4, 2))
        y = rng.standard_normal((4, 2))
        head = MeanSquaredError()
        _, grad = head.value_and_grad(scores, y)
        fd = fd_gradient(
            lambda s: head.value(s.reshape(4, 2), y), scores.ravel()
        ).reshape(4, 2)
        np.testing.assert_allclose(grad, fd, atol=1e-7)


class TestMulticlassHinge:
    def test_zero_loss_with_big_margin(self):
        scores = np.array([[10.0, 0.0], [0.0, 10.0]])
        assert MulticlassHinge().value(scores, np.array([0, 1])) == 0.0

    def test_violated_margin(self):
        scores = np.array([[0.0, 0.5]])
        # margin = 1 + 0.5 - 0 = 1.5
        assert MulticlassHinge().value(scores, np.array([0])) == pytest.approx(1.5)

    def test_binary_matches_paper_formula(self):
        # Symmetric two-class scores (s, -s) reduce to max(0, 1 - 2s) for
        # the positive class; check consistency of the reduction.
        s = 0.2
        scores = np.array([[s, -s]])
        loss = MulticlassHinge().value(scores, np.array([0]))
        assert loss == pytest.approx(max(0.0, 1.0 - 2 * s))

    def test_grad_matches_finite_difference_away_from_kink(self, fd_gradient):
        rng = np.random.default_rng(5)
        scores = rng.standard_normal((6, 3)) * 3.0
        y = rng.integers(0, 3, 6)
        head = MulticlassHinge()
        # keep away from the non-differentiable margin == 0 manifold
        margins, _ = head._margins(scores, y)
        if np.any(np.abs(margins) < 1e-3):
            scores = scores + 0.01
        _, grad = head.value_and_grad(scores, y)
        fd = fd_gradient(
            lambda s: head.value(s.reshape(6, 3), y), scores.ravel(), eps=1e-7
        ).reshape(6, 3)
        np.testing.assert_allclose(grad, fd, atol=1e-5)

    def test_needs_two_classes(self):
        with pytest.raises(DimensionMismatchError):
            MulticlassHinge().value(np.zeros((2, 1)), np.zeros(2, dtype=int))
