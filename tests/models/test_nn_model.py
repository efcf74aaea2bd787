"""Tests for repro.models.nn_model and the MLP/CNN factories."""

import numpy as np
import pytest

from repro.exceptions import DimensionMismatchError
from repro.models import make_mlp_model, make_paper_cnn_model
from repro.models.nn_model import NNModel
from repro.nn import Dense, Sequential, SoftmaxCrossEntropy
from repro.nn.layers import conv2d
from repro.utils.parameter_vector import flatten_arrays


def _paper_cnn():
    return make_paper_cnn_model((1, 28, 28), 10, channel_scale=0.0625, seed=0)


def _mlp():
    return make_mlp_model(784, 10, (16, 8), seed=0)


def _batch(n, seed=4):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 784))
    X[X < 0.5] = 0.0  # blank background, as in the digit images
    return X, rng.integers(0, 10, n)


class TestNNModelAdapter:
    def setup_method(self):
        self.net = Sequential([Dense(4, 3, seed=0)])
        self.model = NNModel(self.net, SoftmaxCrossEntropy())
        self.rng = np.random.default_rng(0)
        self.X = self.rng.standard_normal((6, 4))
        self.y = self.rng.integers(0, 3, 6)

    def test_num_parameters(self):
        assert self.model.num_parameters == 4 * 3 + 3

    def test_loss_is_pure_function_of_w(self):
        w1 = self.model.init_parameters(1)
        w2 = self.model.init_parameters(2)
        a1 = self.model.loss(w1, self.X, self.y)
        _ = self.model.loss(w2, self.X, self.y)
        a1_again = self.model.loss(w1, self.X, self.y)
        assert a1 == a1_again

    def test_gradient_shape(self):
        w = self.model.init_parameters(0)
        _, g = self.model.loss_and_gradient(w, self.X, self.y)
        assert g.shape == w.shape

    def test_wrong_w_size_raises(self):
        with pytest.raises(DimensionMismatchError):
            self.model.loss(np.zeros(5), self.X, self.y)

    def test_batch_label_mismatch_raises(self):
        w = self.model.init_parameters(0)
        with pytest.raises(DimensionMismatchError):
            self.model.loss(w, self.X, self.y[:-1])

    def test_predict_labels_in_range(self):
        w = self.model.init_parameters(0)
        pred = self.model.predict(w, self.X)
        assert set(np.unique(pred)).issubset({0, 1, 2})

    def test_init_parameters_uses_builder(self):
        mlp = make_mlp_model(4, 3, (5,), seed=0)
        w_a = mlp.init_parameters(10)
        w_b = mlp.init_parameters(10)
        w_c = mlp.init_parameters(11)
        np.testing.assert_array_equal(w_a, w_b)
        assert not np.allclose(w_a, w_c)

    def test_input_shape_reshaping(self):
        cnn = make_paper_cnn_model((1, 8, 8), 2, channel_scale=0.05, seed=0)
        w = cnn.init_parameters(0)
        X_flat = np.random.default_rng(1).standard_normal((3, 64))
        X_shaped = X_flat.reshape(3, 1, 8, 8)
        assert cnn.loss(w, X_flat, np.zeros(3, dtype=int)) == pytest.approx(
            cnn.loss(w, X_shaped, np.zeros(3, dtype=int))
        )

    def test_bad_input_shape_raises(self):
        cnn = make_paper_cnn_model((1, 8, 8), 2, channel_scale=0.05, seed=0)
        w = cnn.init_parameters(0)
        with pytest.raises(DimensionMismatchError):
            cnn.loss(w, np.zeros((3, 63)), np.zeros(3, dtype=int))


class TestGradientWithoutInputGradient:
    """``loss_and_gradient`` skips dLoss/dInput but keeps every bit."""

    @pytest.mark.parametrize("make", [_paper_cnn, _mlp], ids=["cnn", "mlp"])
    @pytest.mark.parametrize("n", [8, 88])
    def test_matches_full_backward_bit_for_bit(self, make, n):
        model = make()
        w = model.init_parameters(1)
        X, y = _batch(n)
        loss, grad = model.loss_and_gradient(w, X, y)
        # The full walk, input gradient included, on the same batch.
        inputs = X.reshape((n,) + (model.input_shape or (784,)))
        scores = model.network.forward(inputs, train=True)
        full_loss, grad_scores = model.loss_head.value_and_grad(scores, y)
        assert model.network.backward(grad_scores).shape == inputs.shape
        assert loss == float(full_loss)
        assert grad.tobytes() == flatten_arrays(model.network.gradients()).tobytes()

    def test_cnn_gradient_scatters_only_the_second_conv(self, monkeypatch):
        calls = []

        def spy(cols, x_shape, *args, **kwargs):
            calls.append(x_shape)
            return real(cols, x_shape, *args, **kwargs)

        real = conv2d.col2im
        monkeypatch.setattr(conv2d, "col2im", spy)
        model = _paper_cnn()
        X, y = _batch(8)
        model.loss_and_gradient(model.init_parameters(0), X, y)
        assert calls == [(8, 2, 14, 14)]  # conv2's input; conv1 needs none


class TestFactories:
    def test_mlp_hidden_stack(self):
        mlp = make_mlp_model(6, 3, (8, 4), seed=0)
        # layers: Dense, ReLU, Dense, ReLU, Dense
        assert len(mlp.network) == 5
        assert mlp.num_parameters == (6 * 8 + 8) + (8 * 4 + 4) + (4 * 3 + 3)

    def test_mlp_no_hidden(self):
        mlp = make_mlp_model(6, 3, (), seed=0)
        assert len(mlp.network) == 1

    def test_cnn_paper_architecture_parameter_count(self):
        cnn = make_paper_cnn_model((1, 28, 28), 10, channel_scale=1.0, seed=0)
        conv1 = 32 * 1 * 25 + 32
        conv2 = 64 * 32 * 25 + 64
        head = 64 * 7 * 7 * 10 + 10
        assert cnn.num_parameters == conv1 + conv2 + head

    def test_cnn_channel_scale_shrinks(self):
        big = make_paper_cnn_model((1, 28, 28), 10, channel_scale=1.0, seed=0)
        small = make_paper_cnn_model((1, 28, 28), 10, channel_scale=0.25, seed=0)
        assert small.num_parameters < big.num_parameters

    def test_cnn_rejects_bad_scale(self):
        with pytest.raises(Exception):
            make_paper_cnn_model((1, 28, 28), 10, channel_scale=0.0)
        with pytest.raises(Exception):
            make_paper_cnn_model((1, 28, 28), 10, channel_scale=1.5)

    def test_cnn_forward_runs(self):
        cnn = make_paper_cnn_model((1, 12, 12), 4, channel_scale=0.1, seed=0)
        w = cnn.init_parameters(0)
        X = np.random.default_rng(0).standard_normal((2, 144))
        y = np.array([0, 3])
        loss, grad = cnn.loss_and_gradient(w, X, y)
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))
