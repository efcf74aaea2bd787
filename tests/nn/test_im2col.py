"""Tests for repro.nn.im2col."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.nn.im2col import (
    Im2colScratch,
    col2im,
    conv_output_size,
    im2col,
    sliding_windows,
)


class TestConvOutputSize:
    def test_basic(self):
        assert conv_output_size(28, 5, 1, 0) == 24
        assert conv_output_size(28, 5, 1, 2) == 28
        assert conv_output_size(28, 2, 2, 0) == 14

    def test_nonpositive_raises(self):
        with pytest.raises(ConfigurationError):
            conv_output_size(3, 5, 1, 0)


class TestSlidingWindows:
    def test_shapes(self):
        x = np.arange(2 * 3 * 4 * 4, dtype=np.float64).reshape(2, 3, 4, 4)
        win = sliding_windows(x, (2, 2), 1)
        assert win.shape == (2, 3, 3, 3, 2, 2)

    def test_window_contents(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        win = sliding_windows(x, (2, 2), 2)
        np.testing.assert_array_equal(win[0, 0, 0, 0], [[0, 1], [4, 5]])
        np.testing.assert_array_equal(win[0, 0, 1, 1], [[10, 11], [14, 15]])

    def test_zero_copy_view(self):
        x = np.zeros((1, 1, 4, 4))
        win = sliding_windows(x, (2, 2), 1)
        assert win.base is not None  # a view, not a copy


class TestIm2Col:
    def test_shape(self):
        x = np.zeros((2, 3, 8, 8))
        cols = im2col(x, (3, 3), stride=1, padding=0)
        assert cols.shape == (3 * 9, 2 * 6 * 6)

    def test_identity_kernel_1x1(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 4, 4))
        cols = im2col(x, (1, 1))
        # 1x1 patches are just the pixels, channel-major then batch-major.
        expected = x.transpose(1, 0, 2, 3).reshape(3, -1)
        np.testing.assert_allclose(cols, expected)

    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 2, 6, 6))
        w = rng.standard_normal((4, 2, 3, 3))
        cols = im2col(x, (3, 3), stride=1, padding=1)
        out = (w.reshape(4, -1) @ cols).reshape(4, 2, 6, 6).transpose(1, 0, 2, 3)

        # naive direct cross-correlation
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        naive = np.zeros((2, 4, 6, 6))
        for n in range(2):
            for o in range(4):
                for i in range(6):
                    for j in range(6):
                        patch = xp[n, :, i : i + 3, j : j + 3]
                        naive[n, o, i, j] = np.sum(patch * w[o])
        np.testing.assert_allclose(out, naive, rtol=1e-12)

    def test_bad_input_shape_raises(self):
        with pytest.raises(DimensionMismatchError):
            im2col(np.zeros((3, 8, 8)), (3, 3))

    def test_bad_stride_raises(self):
        with pytest.raises(ConfigurationError):
            im2col(np.zeros((1, 1, 8, 8)), (3, 3), stride=0)


class TestCol2Im:
    def test_adjoint_property(self):
        """col2im must be the exact transpose of im2col: <im2col(x), c> ==
        <x, col2im(c)> for all x, c."""
        rng = np.random.default_rng(2)
        x_shape = (2, 3, 5, 5)
        kernel, stride, padding = (3, 3), 2, 1
        x = rng.standard_normal(x_shape)
        cols = im2col(x, kernel, stride, padding)
        c = rng.standard_normal(cols.shape)
        lhs = np.sum(cols * c)
        rhs = np.sum(x * col2im(c, x_shape, kernel, stride, padding))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_nonoverlapping_roundtrip(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 2, 4, 4))
        cols = im2col(x, (2, 2), stride=2)
        back = col2im(cols, x.shape, (2, 2), stride=2)
        np.testing.assert_allclose(back, x)

    def test_overlap_accumulates(self):
        x_shape = (1, 1, 3, 3)
        cols = np.ones((4, 4))  # 2x2 kernel, stride 1 -> 2x2 positions
        back = col2im(cols, x_shape, (2, 2), stride=1)
        # center pixel is covered by all four windows
        assert back[0, 0, 1, 1] == 4.0
        assert back[0, 0, 0, 0] == 1.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            col2im(np.zeros((4, 5)), (1, 1, 3, 3), (2, 2), stride=1)


class TestIm2ColOutBuffer:
    def _problem(self, seed=0, padding=1):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 3, 6, 6))
        kernel, stride = (3, 3), 1
        expected = im2col(x, kernel, stride, padding)
        return x, kernel, stride, padding, expected

    def test_out_matches_allocating_path_bitwise(self):
        x, kernel, stride, padding, expected = self._problem()
        out = np.empty(expected.shape)
        ret = im2col(x, kernel, stride, padding, out=out)
        assert ret is out
        np.testing.assert_array_equal(out, expected)

    def test_out_fully_overwritten(self):
        x, kernel, stride, padding, expected = self._problem()
        out = np.full(expected.shape, np.nan)
        im2col(x, kernel, stride, padding, out=out)
        assert np.all(np.isfinite(out))

    def test_wrong_out_shape_raises(self):
        x, kernel, stride, padding, expected = self._problem()
        with pytest.raises(DimensionMismatchError):
            im2col(x, kernel, stride, padding, out=np.empty((1, 1)))

    def test_wrong_out_dtype_raises(self):
        x, kernel, stride, padding, expected = self._problem()
        bad = np.empty(expected.shape, dtype=np.float32)
        with pytest.raises(DimensionMismatchError):
            im2col(x, kernel, stride, padding, out=bad)

    def test_noncontiguous_out_raises(self):
        x, kernel, stride, padding, expected = self._problem()
        h, w = expected.shape
        bad = np.empty((h, 2 * w))[:, ::2]
        with pytest.raises(DimensionMismatchError):
            im2col(x, kernel, stride, padding, out=bad)


class TestIm2colScratch:
    def test_same_shape_reuses_buffer(self):
        scratch = Im2colScratch()
        a = scratch.request((4, 9))
        b = scratch.request((4, 9))
        assert a is b

    def test_shape_change_reallocates(self):
        scratch = Im2colScratch()
        a = scratch.request((4, 9))
        b = scratch.request((4, 12))
        assert a is not b
        assert b.shape == (4, 12)

    def test_invalidate_forces_new_buffer(self):
        scratch = Im2colScratch()
        a = scratch.request((4, 9))
        scratch.invalidate()
        b = scratch.request((4, 9))
        assert a is not b

    def test_conv2d_train_cache_survives_interleaved_forwards(self):
        """The eval scratch is separate from the train scratch: an eval
        forward between a train forward and its backward must leave the
        cached train columns intact."""
        from repro.nn.layers.conv2d import Conv2D

        rng = np.random.default_rng(3)
        x1 = rng.standard_normal((2, 1, 5, 5))
        x2 = rng.standard_normal((2, 1, 5, 5))
        g = rng.standard_normal((2, 2, 3, 3))

        ref = Conv2D(1, 2, 3, seed=0)
        ref.forward(x1, train=True)
        expected_grad_x = ref.backward(g)
        expected_grad_w = ref.grad_weight.copy()

        layer = Conv2D(1, 2, 3, seed=0)
        layer.forward(x1, train=True)
        cached = layer._cache_cols.copy()
        layer.forward(x2, train=False)  # eval scratch, independent
        np.testing.assert_array_equal(layer._cache_cols, cached)
        grad_x = layer.backward(g)
        np.testing.assert_array_equal(grad_x, expected_grad_x)
        np.testing.assert_array_equal(layer.grad_weight, expected_grad_w)

    def test_conv2d_keeps_one_train_buffer(self):
        """Backward reads only the latest train forward's columns, so
        same-shape train forwards all write one buffer."""
        from repro.nn.layers.conv2d import Conv2D

        rng = np.random.default_rng(4)
        layer = Conv2D(1, 2, 3, padding=1, seed=0)
        layer.forward(rng.standard_normal((2, 1, 5, 5)), train=True)
        first = layer._cache_cols
        layer.forward(rng.standard_normal((2, 1, 5, 5)), train=True)
        assert layer._cache_cols is first

    def test_conv2d_eval_forward_bitwise_stable_across_reuse(self):
        from repro.nn.layers.conv2d import Conv2D

        rng = np.random.default_rng(5)
        layer = Conv2D(1, 2, 3, seed=0)
        x = rng.standard_normal((2, 1, 5, 5))
        first = layer.forward(x, train=False)
        # Second call reuses the scratch buffer; output must not alias it.
        second = layer.forward(x + 1.0, train=False)
        third = layer.forward(x, train=False)
        np.testing.assert_array_equal(first, third)
        assert not np.array_equal(first, second)
