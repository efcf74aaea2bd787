"""Sequential container tests plus systematic finite-difference checks.

The gradient checks are the contract that makes every hand-written
backward pass trustworthy: for each architecture we compare the packed
analytic gradient of the mean loss against central differences at
randomly probed coordinates.
"""

import numpy as np
import pytest

from repro.models.nn_model import NNModel
from repro.nn import (
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    MeanSquaredError,
    ReLU,
    Sequential,
    Sigmoid,
    SoftmaxCrossEntropy,
    Tanh,
)


def probe_gradient(model: NNModel, X, y, num_probes=20, eps=1e-6, tol=1e-6):
    """Assert analytic grad ~= finite differences at random coordinates."""
    rng = np.random.default_rng(99)
    w = model.init_parameters(3)
    _, grad = model.loss_and_gradient(w, X, y)
    idx = rng.choice(w.size, size=min(num_probes, w.size), replace=False)
    for i in idx:
        wp, wm = w.copy(), w.copy()
        wp[i] += eps
        wm[i] -= eps
        fd = (model.loss(wp, X, y) - model.loss(wm, X, y)) / (2 * eps)
        assert grad[i] == pytest.approx(fd, abs=max(tol, tol * abs(fd))), f"coord {i}"


class TestSequential:
    def test_requires_layers(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_parameter_concatenation_order(self):
        d1, d2 = Dense(2, 3, seed=0), Dense(3, 1, seed=1)
        seq = Sequential([d1, ReLU(), d2])
        params = seq.parameters()
        assert params[0] is d1.weight
        assert params[1] is d1.bias
        assert params[2] is d2.weight
        assert params[3] is d2.bias

    def test_forward_backward_chain(self):
        seq = Sequential([Dense(4, 3, seed=0), ReLU(), Dense(3, 2, seed=1)])
        x = np.random.default_rng(0).standard_normal((5, 4))
        out = seq.forward(x)
        assert out.shape == (5, 2)
        gin = seq.backward(np.ones_like(out))
        assert gin.shape == x.shape

    def test_backward_without_input_grad_stops_at_lowest_trainable_layer(self):
        calls = []

        class SpyReLU(ReLU):
            def backward(self, grad_output):
                calls.append(grad_output.shape)
                return super().backward(grad_output)

        seq = Sequential(
            [SpyReLU(), Dense(4, 3, seed=0), SpyReLU(), Dense(3, 2, seed=1)]
        )
        x = np.random.default_rng(0).standard_normal((5, 4))
        out = seq.forward(x)
        g = np.random.default_rng(1).standard_normal(out.shape)
        assert seq.backward(g, input_grad=False) is None
        assert calls == [(5, 3)]  # the bottom ReLU is never called
        partial = [a.copy() for a in seq.gradients()]
        assert seq.backward(g).shape == x.shape
        assert calls == [(5, 3), (5, 3), (5, 4)]
        assert [a.tobytes() for a in partial] == [a.tobytes() for a in seq.gradients()]

    def test_backward_without_input_grad_and_no_parameters(self):
        seq = Sequential([ReLU(), Tanh()])
        out = seq.forward(np.ones((2, 3)))
        assert seq.backward(np.ones_like(out), input_grad=False) is None

    def test_len_and_iter(self):
        seq = Sequential([Dense(2, 2, seed=0), ReLU()])
        assert len(seq) == 2
        assert [type(m).__name__ for m in seq] == ["Dense", "ReLU"]

    def test_num_parameters(self):
        seq = Sequential([Dense(3, 4, seed=0), Dense(4, 2, seed=0)])
        assert seq.num_parameters == (3 * 4 + 4) + (4 * 2 + 2)


class TestGradientChecks:
    """Finite-difference verification per architecture family."""

    def setup_method(self):
        self.rng = np.random.default_rng(11)

    def test_linear_softmax(self):
        net = Sequential([Dense(6, 4, seed=0)])
        model = NNModel(net, SoftmaxCrossEntropy())
        X = self.rng.standard_normal((8, 6))
        y = self.rng.integers(0, 4, 8)
        probe_gradient(model, X, y)

    def test_mlp_relu(self):
        net = Sequential([Dense(5, 7, seed=0), ReLU(), Dense(7, 3, seed=1)])
        model = NNModel(net, SoftmaxCrossEntropy())
        X = self.rng.standard_normal((6, 5))
        y = self.rng.integers(0, 3, 6)
        probe_gradient(model, X, y)

    def test_mlp_sigmoid_tanh(self):
        net = Sequential(
            [Dense(4, 6, seed=0), Sigmoid(), Dense(6, 6, seed=1), Tanh(), Dense(6, 2, seed=2)]
        )
        model = NNModel(net, SoftmaxCrossEntropy())
        X = self.rng.standard_normal((5, 4))
        y = self.rng.integers(0, 2, 5)
        probe_gradient(model, X, y)

    def test_mse_regression_head(self):
        net = Sequential([Dense(4, 3, seed=0), Tanh(), Dense(3, 1, seed=1)])
        model = NNModel(net, MeanSquaredError())
        X = self.rng.standard_normal((7, 4))
        y = self.rng.standard_normal(7)
        probe_gradient(model, X, y)

    def test_conv_pool_net(self):
        net = Sequential(
            [
                Conv2D(1, 3, 3, padding=1, seed=0),
                ReLU(),
                MaxPool2D(2),
                Flatten(),
                Dense(3 * 4 * 4, 3, seed=1),
            ]
        )
        model = NNModel(net, SoftmaxCrossEntropy(), input_shape=(1, 8, 8))
        X = self.rng.standard_normal((4, 64))
        y = self.rng.integers(0, 3, 4)
        probe_gradient(model, X, y, tol=1e-5)

    def test_two_conv_blocks(self):
        net = Sequential(
            [
                Conv2D(1, 2, 3, padding=1, seed=0),
                ReLU(),
                MaxPool2D(2),
                Conv2D(2, 4, 3, padding=1, seed=1),
                ReLU(),
                MaxPool2D(2),
                Flatten(),
                Dense(4 * 2 * 2, 2, seed=2),
            ]
        )
        model = NNModel(net, SoftmaxCrossEntropy(), input_shape=(1, 8, 8))
        X = self.rng.standard_normal((3, 64))
        y = self.rng.integers(0, 2, 3)
        probe_gradient(model, X, y, tol=1e-5)

    def test_strided_conv(self):
        net = Sequential(
            [Conv2D(2, 3, 3, stride=2, seed=0), ReLU(), Flatten(), Dense(3 * 3 * 3, 2, seed=1)]
        )
        model = NNModel(net, SoftmaxCrossEntropy(), input_shape=(2, 7, 7))
        X = self.rng.standard_normal((3, 2 * 49))
        y = self.rng.integers(0, 2, 3)
        probe_gradient(model, X, y, tol=1e-5)
