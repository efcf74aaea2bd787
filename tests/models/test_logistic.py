"""Tests for repro.models.logistic."""

import numpy as np
import pytest

from repro.models import MultinomialLogisticModel


class TestBasics:
    def test_parameter_count(self):
        assert MultinomialLogisticModel(4, 3).num_parameters == 4 * 3 + 3
        assert (
            MultinomialLogisticModel(4, 3, fit_intercept=False).num_parameters == 12
        )

    def test_uniform_loss_at_zero(self):
        model = MultinomialLogisticModel(3, 5)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 3))
        y = rng.integers(0, 5, 6)
        assert model.loss(np.zeros(model.num_parameters), X, y) == pytest.approx(
            np.log(5)
        )

    def test_predict_matches_argmax_proba(self):
        model = MultinomialLogisticModel(4, 3)
        rng = np.random.default_rng(1)
        w = model.init_parameters(0) * 10
        X = rng.standard_normal((8, 4))
        proba = model.predict_proba(w, X)
        np.testing.assert_array_equal(model.predict(w, X), proba.argmax(axis=1))

    def test_proba_rows_sum_to_one(self):
        model = MultinomialLogisticModel(4, 3)
        rng = np.random.default_rng(2)
        proba = model.predict_proba(
            model.init_parameters(1), rng.standard_normal((5, 4))
        )
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_accuracy_on_separable_data(self):
        model = MultinomialLogisticModel(2, 2, fit_intercept=False)
        # weight matrix scoring class 0 high for x0>0
        w = model.spec.flatten([np.array([[5.0, -5.0], [0.0, 0.0]])])
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([0, 1])
        assert model.accuracy(w, X, y) == 1.0


class TestGradients:
    def test_matches_finite_difference(self, fd_gradient):
        rng = np.random.default_rng(3)
        model = MultinomialLogisticModel(5, 4, l2=0.05)
        X = rng.standard_normal((9, 5))
        y = rng.integers(0, 4, 9)
        w = model.init_parameters(2)
        _, grad = model.loss_and_gradient(w, X, y)
        fd = fd_gradient(lambda v: model.loss(v, X, y), w)
        np.testing.assert_allclose(grad, fd, atol=1e-7)

    def test_l2_shrinks_weights_not_bias(self):
        model = MultinomialLogisticModel(2, 2, l2=1.0)
        w = np.zeros(model.num_parameters)
        pieces = model.spec.unflatten(w)
        pieces[0][...] = 1.0  # weights
        pieces[1][...] = 1.0  # bias
        X = np.zeros((1, 2))
        y = np.array([0])
        _, grad = model.loss_and_gradient(w, X, y)
        grad_pieces = model.spec.unflatten(grad)
        # weight gradient contains the l2 pull
        assert np.all(grad_pieces[0] == pytest.approx(1.0))

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(4)
        model = MultinomialLogisticModel(6, 3)
        X = rng.standard_normal((60, 6))
        y = rng.integers(0, 3, 60)
        w = model.init_parameters(0)
        before = model.loss(w, X, y)
        for _ in range(50):
            w = w - 0.5 * model.gradient(w, X, y)
        assert model.loss(w, X, y) < before


class TestSmoothness:
    def test_multiclass_scale(self):
        X = np.array([[2.0, 0.0]])
        model = MultinomialLogisticModel(2, 3)
        assert model.smoothness(X) == pytest.approx(0.5 * 4.0)

    def test_l2_added(self):
        X = np.array([[1.0, 0.0]])
        model = MultinomialLogisticModel(2, 3, l2=0.25)
        assert model.smoothness(X) == pytest.approx(0.5 + 0.25)


def _reference_loss_and_gradient(model, w, X, y):
    """The allocating formulation through ``SoftmaxCrossEntropy``,
    spelled out: stable log-softmax, NLL, ``X^T G``, L2 and bias sums
    on fresh arrays, exactly as the model computed them before its
    gradient ran the shared in-place softmax-NLL chain."""
    f, c = model.num_features, model.num_classes
    W = w[: f * c].reshape(f, c)
    scores = X @ W
    if model.fit_intercept:
        scores = scores + w[f * c :]
    n = scores.shape[0]
    shifted = scores - scores.max(axis=1, keepdims=True)
    ls = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    idx = np.arange(n)
    base = float(-ls[idx, y.astype(int)].mean())
    grad_scores = np.exp(ls)
    grad_scores[idx, y.astype(int)] -= 1.0
    grad_scores /= n
    grad = np.zeros(model.num_parameters)
    grad_W = grad[: f * c].reshape(f, c)
    grad_W[...] = X.T @ grad_scores
    if model.l2:
        loss = float(base + 0.5 * model.l2 * np.sum(W * W))
        grad_W += model.l2 * W
    else:
        loss = float(base)
    if model.fit_intercept:
        grad[f * c :] = grad_scores.sum(axis=0)
    return loss, grad


class TestGradientBitIdentity:
    """``gradient`` skips the loss and ``loss_and_gradient`` computes
    it, both through one private body and the shared in-place chain:
    every result must keep the allocating formulation's bits."""

    @pytest.mark.parametrize("n", [1, 32, 150])
    @pytest.mark.parametrize("float_labels", [False, True])
    @pytest.mark.parametrize("fit_intercept", [True, False])
    @pytest.mark.parametrize("l2", [0.0, 1e-3])
    def test_matches_reference_bit_for_bit(self, n, float_labels, fit_intercept, l2):
        rng = np.random.default_rng(n)
        model = MultinomialLogisticModel(60, 10, l2=l2, fit_intercept=fit_intercept)
        X = rng.standard_normal((n, 60))
        y = rng.integers(0, 10, n)
        if float_labels:
            y = y.astype(np.float64)
        w = rng.standard_normal(model.num_parameters)
        ref_loss, ref_grad = _reference_loss_and_gradient(model, w, X, y)

        loss, grad = model.loss_and_gradient(w, X, y)
        assert grad.tobytes() == ref_grad.tobytes()
        assert model.gradient(w, X, y).tobytes() == ref_grad.tobytes()
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert np.float64(model.loss(w, X, y)).tobytes() == np.float64(loss).tobytes()

    def test_each_call_returns_a_fresh_array(self):
        rng = np.random.default_rng(0)
        model = MultinomialLogisticModel(5, 3)
        X, y = rng.standard_normal((8, 5)), rng.integers(0, 3, 8)
        w = model.init_parameters(0)
        first = model.gradient(w, X, y)
        second = model.gradient(w, X, y)
        assert not np.shares_memory(first, second)
        first[...] = 0.0
        assert second.any()
