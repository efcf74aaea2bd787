"""Tests for individual layers: shapes, semantics, parameter plumbing."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sigmoid, Tanh
from repro.nn.im2col import im2col, sliding_windows
from repro.nn.layers import conv2d as conv2d_module


def reference_maxpool(x, pool, stride, grad_output):
    """Max pooling as first written: ``argmax`` and ``max`` reductions
    forward, an ``np.add.at`` scatter into zeros backward.

    Returns ``(max, element at argmax, argmax, grad_input)``.
    """
    windows = sliding_windows(x, (pool, pool), stride)
    N, C, oh, ow, ph, pw = windows.shape
    flat = windows.reshape(N, C, oh, ow, ph * pw)
    argmax = np.argmax(flat, axis=-1)
    out = flat.max(axis=-1)
    first = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]
    grad_input = np.zeros(x.shape)
    local_r, local_c = np.divmod(argmax, pw)
    rows = (np.arange(oh)[None, None, :, None] * stride + local_r).ravel()
    cols = (np.arange(ow)[None, None, None, :] * stride + local_c).ravel()
    n_idx = np.repeat(np.arange(N), C * oh * ow)
    c_idx = np.tile(np.repeat(np.arange(C), oh * ow), N)
    np.add.at(grad_input, (n_idx, c_idx, rows, cols), grad_output.ravel())
    return out, first, argmax, grad_input


def reference_conv(layer, x):
    """Conv2D forward through standalone ``im2col`` (which pads with ``np.pad``)."""
    cols = im2col(x, layer.kernel_size, layer.stride, layer.padding)
    out = layer.weight.reshape(layer.out_channels, -1) @ cols + layer.bias[:, None]
    _, oh, ow = layer.output_shape(x.shape[1:])
    return out.reshape(layer.out_channels, x.shape[0], oh, ow).transpose(1, 0, 2, 3)


def reuse_inputs():
    """Inputs of the ``Conv2D`` reuse table, fresh (and mutable) per case."""
    rng = np.random.default_rng(21)
    x = rng.standard_normal((4, 2, 9, 9))
    z = x.copy()
    z[0, 0, 3, 3] = 0.0
    z_neg = z.copy()
    z_neg[0, 0, 3, 3] = -0.0  # the same value, other bits
    nan = x.copy()
    nan[1, 1, 2, 5] = np.nan
    return {
        "x": x,
        "y": rng.standard_normal(x.shape),
        "z": z,
        "z_neg": z_neg,
        "nan": nan,
        "x_small": x[:2].copy(),
    }


# case: (padding, steps); a step is (op, input name, whether it lowers)
CONV_REUSE_TABLE = {
    "same input": (2, [("train", "x", True), ("train", "x", False), ("train", "x", False)]),
    "eval in between": (
        2,
        [("train", "x", True), ("eval", "y", True), ("train", "y", True), ("train", "y", False)],
    ),
    "mutated in place": (2, [("train", "x", True), ("mutate", "x", None), ("train", "x", True)]),
    "zero sign flipped": (
        2,
        [("train", "z", True), ("train", "z_neg", True), ("train", "z", True)],
    ),
    "nan twice": (2, [("train", "nan", True), ("train", "nan", False)]),
    "batch size change": (
        2,
        [("train", "x", True), ("train", "x_small", True), ("train", "x", True)],
    ),
    "invalidated": (2, [("train", "x", True), ("invalidate", None, None), ("train", "x", True)]),
    "unpadded": (0, [("train", "x", True), ("train", "x", True)]),
}


class TestDense:
    def test_forward_affine(self):
        layer = Dense(3, 2, seed=0)
        layer.weight[...] = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        layer.bias[...] = np.array([0.5, -0.5])
        out = layer.forward(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(out, [[1 + 3 + 0.5, 2 + 3 - 0.5]])

    def test_no_bias(self):
        layer = Dense(3, 2, use_bias=False, seed=0)
        assert len(layer.parameters()) == 1
        out = layer.forward(np.zeros((4, 3)))
        np.testing.assert_allclose(out, np.zeros((4, 2)))

    def test_backward_shapes(self):
        layer = Dense(5, 3, seed=0)
        x = np.random.default_rng(0).standard_normal((7, 5))
        layer.forward(x)
        gin = layer.backward(np.ones((7, 3)))
        assert gin.shape == (7, 5)
        assert layer.grad_weight.shape == (5, 3)
        assert layer.grad_bias.shape == (3,)

    def test_backward_before_forward_raises(self):
        layer = Dense(2, 2, seed=0)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 2)))

    def test_wrong_input_width_raises(self):
        layer = Dense(3, 2, seed=0)
        with pytest.raises(DimensionMismatchError):
            layer.forward(np.zeros((4, 5)))

    def test_grad_bias_is_column_sum(self):
        layer = Dense(2, 2, seed=0)
        layer.forward(np.zeros((3, 2)))
        layer.backward(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_allclose(layer.grad_bias, [9.0, 12.0])

    def test_num_parameters(self):
        assert Dense(4, 3, seed=0).num_parameters == 4 * 3 + 3

    def test_zero_gradients(self):
        layer = Dense(2, 2, seed=0)
        layer.forward(np.ones((1, 2)))
        layer.backward(np.ones((1, 2)))
        layer.zero_gradients()
        assert not layer.grad_weight.any()
        assert not layer.grad_bias.any()


class TestConv2D:
    def test_output_shape_same_padding(self):
        conv = Conv2D(1, 4, 5, padding=2, seed=0)
        assert conv.output_shape((1, 28, 28)) == (4, 28, 28)

    def test_forward_shape(self):
        conv = Conv2D(3, 8, 3, padding=1, seed=0)
        out = conv.forward(np.zeros((2, 3, 10, 10)))
        assert out.shape == (2, 8, 10, 10)

    def test_known_convolution(self):
        conv = Conv2D(1, 1, 2, use_bias=False, seed=0)
        conv.weight[...] = np.array([[[[1.0, 0.0], [0.0, -1.0]]]])
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = conv.forward(x)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == pytest.approx(1.0 - 4.0)

    def test_bias_broadcast(self):
        conv = Conv2D(1, 2, 1, seed=0)
        conv.weight[...] = 0.0
        conv.bias[...] = np.array([1.0, -2.0])
        out = conv.forward(np.zeros((1, 1, 3, 3)))
        np.testing.assert_allclose(out[0, 0], 1.0)
        np.testing.assert_allclose(out[0, 1], -2.0)

    def test_backward_shapes(self):
        conv = Conv2D(2, 4, 3, padding=1, seed=0)
        x = np.random.default_rng(1).standard_normal((2, 2, 6, 6))
        out = conv.forward(x)
        gin = conv.backward(np.ones_like(out))
        assert gin.shape == x.shape
        assert conv.grad_weight.shape == conv.weight.shape
        assert conv.grad_bias.shape == (4,)

    def test_wrong_channels_raises(self):
        conv = Conv2D(3, 4, 3, seed=0)
        with pytest.raises(DimensionMismatchError):
            conv.forward(np.zeros((1, 2, 8, 8)))

    def test_backward_before_forward_raises(self):
        conv = Conv2D(1, 1, 2, seed=0)
        with pytest.raises(RuntimeError):
            conv.backward(np.zeros((1, 1, 1, 1)))

    def test_stride(self):
        conv = Conv2D(1, 1, 2, stride=2, seed=0)
        out = conv.forward(np.zeros((1, 1, 8, 8)))
        assert out.shape == (1, 1, 4, 4)

    @pytest.mark.parametrize("padding", [0, 2])
    def test_reused_buffers_match_fresh_layers(self, padding):
        # One layer sees batch sizes 8 -> 22 -> 8 with train and eval
        # forwards interleaved; each result must equal, bit for bit, a
        # fresh layer's and the np.pad-based lowering's.
        rng = np.random.default_rng(3)
        layer = Conv2D(2, 3, 5, padding=padding, seed=0)
        layer.bias[...] = rng.standard_normal(3)
        steps = [(8, True), (22, False), (22, True), (8, False), (8, True), (8, True)]
        for i, (n, train) in enumerate(steps):
            fresh = Conv2D(2, 3, 5, padding=padding, seed=0)
            fresh.bias[...] = layer.bias
            x = rng.standard_normal((n, 2, 9, 9))
            out = layer.forward(x, train=train)
            assert out.tobytes() == fresh.forward(x, train=train).tobytes()
            assert out.tobytes() == reference_conv(layer, x).tobytes()
            if not train:
                continue
            g = rng.standard_normal(out.shape)
            want_input = i % 2 == 0
            gin = layer.backward(g, input_grad=want_input)
            ref_gin = fresh.backward(g)
            assert layer.grad_weight.tobytes() == fresh.grad_weight.tobytes()
            assert layer.grad_bias.tobytes() == fresh.grad_bias.tobytes()
            if want_input:
                assert gin.tobytes() == ref_gin.tobytes()
            else:
                assert gin is None

    @pytest.mark.parametrize("case", list(CONV_REUSE_TABLE))
    def test_train_column_reuse(self, case, monkeypatch):
        # A train forward reuses its columns only for the bits they were
        # lowered from; either way every result equals a fresh layer's.
        lowerings = []

        def spy(*args, **kwargs):
            lowerings.append(1)
            return im2col(*args, **kwargs)

        monkeypatch.setattr(conv2d_module, "im2col", spy)
        padding, steps = CONV_REUSE_TABLE[case]
        inputs = reuse_inputs()
        rng = np.random.default_rng(4)
        layer = Conv2D(2, 3, 5, padding=padding, seed=0)
        for op, name, lowers in steps:
            if op == "invalidate":
                layer._train_scratch.invalidate()
                continue
            x = inputs[name]
            if op == "mutate":
                x[0, 0, 4, 4] += 1.0
                continue
            # The weights move between calls, as in training and the probe.
            layer.weight += 0.01 * rng.standard_normal(layer.weight.shape)
            layer.bias[...] = rng.standard_normal(3)
            fresh = Conv2D(2, 3, 5, padding=padding, seed=0)
            fresh.weight[...] = layer.weight
            fresh.bias[...] = layer.bias
            train = op == "train"
            before = len(lowerings)
            out = layer.forward(x, train=train)
            assert (len(lowerings) > before) == lowers
            assert out.tobytes() == fresh.forward(x, train=train).tobytes()
            if not train:
                continue
            assert layer._cache_cols.tobytes() == fresh._cache_cols.tobytes()
            g = rng.standard_normal(out.shape)
            gin = layer.backward(g)
            assert gin.tobytes() == fresh.backward(g).tobytes()
            assert layer.grad_weight.tobytes() == fresh.grad_weight.tobytes()
            assert layer.grad_bias.tobytes() == fresh.grad_bias.tobytes()


class TestMaxPool2D:
    def test_forward_values(self):
        pool = MaxPool2D(2)
        x = np.array([[[[1.0, 2.0, 5.0, 0.0],
                        [3.0, 4.0, 1.0, 1.0],
                        [0.0, 0.0, 2.0, 2.0],
                        [9.0, 0.0, 2.0, 3.0]]]])
        out = pool.forward(x)
        np.testing.assert_allclose(out, [[[[4.0, 5.0], [9.0, 3.0]]]])

    def test_backward_routes_to_argmax(self):
        pool = MaxPool2D(2)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        pool.forward(x)
        gin = pool.backward(np.array([[[[7.0]]]]))
        np.testing.assert_allclose(gin, [[[[0.0, 0.0], [0.0, 7.0]]]])

    def test_ties_go_to_first(self):
        pool = MaxPool2D(2)
        x = np.zeros((1, 1, 2, 2))
        pool.forward(x)
        gin = pool.backward(np.array([[[[1.0]]]]))
        assert gin[0, 0, 0, 0] == 1.0
        assert gin.sum() == 1.0

    def test_overlapping_stride_accumulates(self):
        pool = MaxPool2D(2, stride=1)
        x = np.array([[[[0.0, 0.0, 0.0],
                        [0.0, 9.0, 0.0],
                        [0.0, 0.0, 0.0]]]])
        out = pool.forward(x)
        np.testing.assert_allclose(out, 9.0)
        gin = pool.backward(np.ones((1, 1, 2, 2)))
        assert gin[0, 0, 1, 1] == 4.0  # all four windows argmax at center

    def test_no_parameters(self):
        assert MaxPool2D(2).parameters() == []

    @pytest.mark.parametrize(
        "shape, pool, stride",
        [
            ((3, 2, 8, 8), 2, 2),  # the paper CNN's geometry
            ((2, 2, 7, 7), 2, 2),  # odd input: last row/column uncovered
            ((2, 2, 9, 9), 2, 3),  # gaps between windows
            ((2, 2, 7, 7), 2, 1),  # overlapping windows
            ((2, 1, 7, 7), 3, 2),  # overlapping, odd window
        ],
    )
    @pytest.mark.parametrize(
        "fill", ["ties", "constant", "normal", "nan", "signed_zeros"]
    )
    def test_matches_reference_bit_for_bit(self, shape, pool, stride, fill):
        rng = np.random.default_rng(8)
        if fill == "ties":  # few distinct values: most windows tie
            x = rng.integers(-2, 3, shape).astype(np.float64)
        elif fill == "constant":  # every window all-equal
            x = np.full(shape, 1.5)
        elif fill == "nan":  # argmax's rule: a window's first NaN wins
            x = rng.standard_normal(shape)
            x.ravel()[rng.random(x.size) < 0.15] = np.nan
            x[:, 0, 1, 1] = np.nan  # a later slot of the first window
            x[-1, -1, :pool, :pool] = np.nan  # an all-NaN window
        elif fill == "signed_zeros":  # zero maxima held with both signs
            x = rng.choice([0.0, -0.0, -1.0], shape)
            x[0, 0, :pool, :pool] = -1.0
            x[0, 0, 0, 0], x[0, 0, pool - 1, pool - 1] = 0.0, -0.0
            x[-1, -1, :pool, :pool] = -1.0
            x[-1, -1, 0, 0], x[-1, -1, pool - 1, pool - 1] = -0.0, 0.0
        else:
            x = rng.standard_normal(shape)
        layer = MaxPool2D(pool, stride=stride)
        eval_out = layer.forward(x, train=False)
        out = layer.forward(x, train=True)
        g = rng.standard_normal(out.shape)
        g.ravel()[::3] = -0.0  # np.add.at into zeros makes these +0.0
        ref_max, ref_first, ref_argmax, ref_gin = reference_maxpool(x, pool, stride, g)
        # Train takes the element at the argmax, eval the ``max``; the
        # two differ only in the sign of a zero maximum held both ways.
        assert out.tobytes() == ref_first.tobytes()
        assert eval_out.tobytes() == ref_max.tobytes()
        if fill != "signed_zeros":
            assert ref_first.tobytes() == ref_max.tobytes()
        assert np.array_equal(layer._cache_argmax, ref_argmax)
        assert layer.backward(g).tobytes() == ref_gin.tobytes()

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            MaxPool2D(0)
        with pytest.raises(ConfigurationError):
            MaxPool2D(2, stride=0)


class TestActivations:
    def test_relu_forward(self):
        out = ReLU().forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.0, 2.0]])

    def test_relu_backward_mask(self):
        relu = ReLU()
        relu.forward(np.array([[-1.0, 3.0]]))
        gin = relu.backward(np.array([[5.0, 5.0]]))
        np.testing.assert_allclose(gin, [[0.0, 5.0]])

    def test_sigmoid_range_and_symmetry(self):
        s = Sigmoid()
        out = s.forward(np.array([[-100.0, 0.0, 100.0]]))
        assert 0.0 <= out.min() and out.max() <= 1.0
        assert out[0, 1] == pytest.approx(0.5)

    def test_sigmoid_extreme_stability(self):
        out = Sigmoid().forward(np.array([[-1000.0, 1000.0]]))
        assert np.all(np.isfinite(out))

    def test_tanh_backward(self):
        t = Tanh()
        t.forward(np.array([[0.0]]))
        gin = t.backward(np.array([[2.0]]))
        assert gin[0, 0] == pytest.approx(2.0)  # tanh'(0) = 1

    @pytest.mark.parametrize("layer_cls", [ReLU, Sigmoid, Tanh])
    def test_backward_before_forward_raises(self, layer_cls):
        with pytest.raises(RuntimeError):
            layer_cls().backward(np.zeros((1, 1)))

    @pytest.mark.parametrize("layer_cls", [ReLU, Sigmoid, Tanh])
    def test_stateless_params(self, layer_cls):
        assert layer_cls().parameters() == []


class TestFlatten:
    def test_roundtrip(self):
        f = Flatten()
        x = np.arange(24, dtype=np.float64).reshape(2, 3, 2, 2)
        out = f.forward(x)
        assert out.shape == (2, 12)
        back = f.backward(out)
        np.testing.assert_allclose(back, x)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            Flatten().backward(np.zeros((1, 4)))
