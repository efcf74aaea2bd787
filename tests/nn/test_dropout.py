"""Tests for the Dropout layer."""

import numpy as np
import pytest

from repro.models.nn_model import NNModel
from repro.nn import Dense, Dropout, Sequential, SoftmaxCrossEntropy


class TestDropout:
    def test_eval_mode_is_identity(self):
        layer = Dropout(0.5, seed=0)
        x = np.random.default_rng(0).standard_normal((4, 10))
        np.testing.assert_array_equal(layer.forward(x, train=False), x)

    def test_zero_rate_is_identity_in_train(self):
        layer = Dropout(0.0, seed=0)
        x = np.ones((2, 5))
        np.testing.assert_array_equal(layer.forward(x, train=True), x)

    def test_train_mode_zeroes_roughly_rate_fraction(self):
        layer = Dropout(0.3, seed=1)
        x = np.ones((100, 100))
        out = layer.forward(x, train=True)
        dropped = np.mean(out == 0.0)
        assert dropped == pytest.approx(0.3, abs=0.03)

    def test_survivors_scaled(self):
        layer = Dropout(0.5, seed=2)
        x = np.ones((50, 50))
        out = layer.forward(x, train=True)
        survivors = out[out != 0.0]
        np.testing.assert_allclose(survivors, 2.0)

    def test_expectation_preserved(self):
        layer = Dropout(0.4, seed=3)
        x = np.ones((200, 200))
        out = layer.forward(x, train=True)
        assert out.mean() == pytest.approx(1.0, abs=0.02)

    def test_backward_uses_same_mask(self):
        layer = Dropout(0.5, seed=4)
        x = np.ones((10, 10))
        out = layer.forward(x, train=True)
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_array_equal(grad, out)  # same mask, same scale

    def test_backward_after_eval_raises(self):
        layer = Dropout(0.5, seed=5)
        layer.forward(np.ones((2, 2)), train=False)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((2, 2)))

    def test_zero_rate_backward_is_identity(self):
        layer = Dropout(0.0, seed=0)
        g = np.random.default_rng(1).standard_normal((3, 4))
        layer.forward(np.ones((3, 4)), train=True)
        assert layer.backward(g).tobytes() == g.tobytes()
        layer.forward(np.ones((3, 4)), train=False)
        with pytest.raises(RuntimeError):
            layer.backward(g)

    def test_zero_rate_network_matches_network_without_dropout(self):
        def model(dropout):
            middle = [Dropout(0.0, seed=1)] if dropout else []
            return NNModel(
                Sequential([Dense(4, 8, seed=0), *middle, Dense(8, 2, seed=2)]),
                SoftmaxCrossEntropy(),
            )

        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 4))
        y = rng.integers(0, 2, 6)
        with_dropout, plain = model(True), model(False)
        w = plain.init_parameters(0)
        loss_a, grad_a = with_dropout.loss_and_gradient(w, X, y)
        loss_b, grad_b = plain.loss_and_gradient(w, X, y)
        assert loss_a == loss_b
        assert grad_a.tobytes() == grad_b.tobytes()

    def test_rate_one_rejected(self):
        with pytest.raises(Exception):
            Dropout(1.0)

    def test_no_parameters(self):
        assert Dropout(0.5).parameters() == []

    def test_inside_network_train_eval_paths(self):
        net = Sequential([Dense(4, 8, seed=0), Dropout(0.5, seed=1), Dense(8, 2, seed=2)])
        model = NNModel(net, SoftmaxCrossEntropy())
        w = model.init_parameters(0)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 4))
        y = rng.integers(0, 2, 6)
        # loss() uses train=False -> deterministic
        assert model.loss(w, X, y) == model.loss(w, X, y)
        # gradient path (train=True) runs without error and is finite
        loss, grad = model.loss_and_gradient(w, X, y)
        assert np.all(np.isfinite(grad))
