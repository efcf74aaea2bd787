"""2-D convolution layer (im2col + GEMM)."""

from __future__ import annotations

import time
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import DimensionMismatchError
from repro.nn import initializers
from repro.nn.im2col import Im2colScratch, col2im, conv_output_size, im2col
from repro.nn.module import Module
from repro.obs import telemetry
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int


def _pair(v: Union[int, Tuple[int, int]]) -> Tuple[int, int]:
    if isinstance(v, tuple):
        return (int(v[0]), int(v[1]))
    return (int(v), int(v))


class Conv2D(Module):
    """Cross-correlation layer over NCHW inputs.

    The forward pass lowers every receptive field to a column
    (:func:`repro.nn.im2col.im2col`) and computes all outputs with one
    matrix multiply; the backward pass reuses the cached columns for the
    weight gradient and, unless ``input_grad=False``, scatters the input
    gradient back with :func:`col2im`.  Weight shape is
    ``(out_channels, in_channels, KH, KW)``.

    The layer keeps two column buffers: one for train forwards, whose
    columns the next backward reads, and one for eval forwards, so an
    evaluation between a train forward and its backward leaves the
    cached columns intact.

    A padded layer (``padding > 0``) copies each input into the
    interior of a zero-bordered buffer it keeps.  A train forward whose
    input has the same shape as that interior and equals it bit for bit
    (compared as ``int64`` views, so +0.0 and -0.0, or two NaN
    payloads, differ) reuses the train columns instead of copying and
    lowering again: the power-iteration probe and the two gradients of
    a SARAH/SVRG step evaluate one batch repeatedly.  Reuse ends when
    the columns could be stale: after any eval forward (it rewrites the
    padded buffer), on a shape change, and when the train buffer is
    reallocated or invalidated.  An unpadded layer keeps no copy of its
    input and lowers on every call.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: Union[int, Tuple[int, int]],
        *,
        stride: int = 1,
        padding: int = 0,
        weight_init: str = "he_normal",
        use_bias: bool = True,
        seed: SeedLike = None,
    ) -> None:
        self.in_channels = check_positive_int("in_channels", in_channels)
        self.out_channels = check_positive_int("out_channels", out_channels)
        self.kernel_size = _pair(kernel_size)
        self.stride = check_positive_int("stride", stride)
        self.padding = check_positive_int("padding", padding, minimum=0)
        self.use_bias = bool(use_bias)

        kh, kw = self.kernel_size
        rng = as_generator(seed)
        init = initializers.get(weight_init)
        fan_in = self.in_channels * kh * kw
        fan_out = self.out_channels * kh * kw
        self.weight = init(
            (self.out_channels, self.in_channels, kh, kw), (fan_in, fan_out), rng
        )
        self.grad_weight = np.zeros_like(self.weight)
        if self.use_bias:
            self.bias = np.zeros(self.out_channels, dtype=np.float64)
            self.grad_bias = np.zeros_like(self.bias)

        self._cache_cols: Optional[np.ndarray] = None
        self._cache_x_shape: Optional[Tuple[int, int, int, int]] = None
        # Column scratch.  A train forward's columns escape into
        # ``_cache_cols``; backward reads only the latest train
        # forward's, like every other layer cache, so one train buffer
        # is enough.  The eval buffer is kept apart (see the class
        # docstring).
        self._eval_scratch = Im2colScratch()
        self._train_scratch = Im2colScratch()
        # Zero-bordered copy of the input, reused across same-shape
        # forwards: only the interior is ever written, so the border
        # stays zero and padding costs one copy, not an allocation.
        self._padded: Optional[np.ndarray] = None
        # True while the train columns are the lowering of ``_padded``'s
        # interior; an eval forward rewrites the interior and clears it.
        self._cols_hold_padded = False

    def output_shape(self, input_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        """Per-sample output shape ``(C_out, OH, OW)`` for a CHW input."""
        _, H, W = input_shape
        kh, kw = self.kernel_size
        oh = conv_output_size(H, kh, self.stride, self.padding)
        ow = conv_output_size(W, kw, self.stride, self.padding)
        return (self.out_channels, oh, ow)

    def forward(self, x: np.ndarray, *, train: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise DimensionMismatchError(
                f"Conv2D expected (N, {self.in_channels}, H, W), got {x.shape}"
            )
        N = x.shape[0]
        _, oh, ow = self.output_shape(x.shape[1:])
        kh, kw = self.kernel_size
        scratch = self._train_scratch if train else self._eval_scratch
        buf = scratch.request((self.in_channels * kh * kw, N * oh * ow))
        # A reallocated or invalidated train buffer is a new object, so
        # ``buf is self._cache_cols`` fails whenever the columns are gone.
        if not (train and buf is self._cache_cols and self._holds(x)):
            if telemetry.nn_profiling:
                # The lowering, not the GEMM, is the historical hot spot —
                # time it separately so `obs-report` can name it.
                t0 = time.perf_counter()
                im2col(self._pad(x), self.kernel_size, self.stride, out=buf)
                telemetry.observe(
                    "nn.conv2d.im2col_seconds", time.perf_counter() - t0
                )
            else:
                im2col(self._pad(x), self.kernel_size, self.stride, out=buf)
            self._cols_hold_padded = train and self.padding > 0
        if train:
            self._cache_cols = buf
            self._cache_x_shape = x.shape
        w2d = self.weight.reshape(self.out_channels, self.in_channels * kh * kw)
        out = w2d @ buf  # (C_out, N*OH*OW)
        if self.use_bias:
            out += self.bias[:, None]
        return out.reshape(self.out_channels, N, oh, ow).transpose(1, 0, 2, 3)

    def _holds(self, x: np.ndarray) -> bool:
        """Whether the train columns are the lowering of ``x``'s bits."""
        if not self._cols_hold_padded:
            return False
        p = self.padding
        N, C, H, W = x.shape
        if self._padded.shape != (N, C, H + 2 * p, W + 2 * p):
            return False
        interior = self._padded[:, :, p : p + H, p : p + W]
        return np.array_equal(interior.view(np.int64), x.view(np.int64))

    def _pad(self, x: np.ndarray) -> np.ndarray:
        """``x`` zero-padded by ``self.padding``, in the reused buffer."""
        p = self.padding
        if p == 0:
            return x
        N, C, H, W = x.shape
        shape = (N, C, H + 2 * p, W + 2 * p)
        if self._padded is None or self._padded.shape != shape:
            self._padded = np.zeros(shape, dtype=np.float64)
        self._padded[:, :, p : p + H, p : p + W] = x
        return self._padded

    def backward(
        self, grad_output: np.ndarray, *, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._cache_cols is None or self._cache_x_shape is None:
            raise RuntimeError("backward called before forward(train=True)")
        x_shape = self._cache_x_shape
        N = x_shape[0]
        _, oh, ow = self.output_shape(x_shape[1:])
        grad_output = np.asarray(grad_output, dtype=np.float64)
        if grad_output.shape != (N, self.out_channels, oh, ow):
            raise DimensionMismatchError(
                f"grad_output shape {grad_output.shape} does not match "
                f"({N}, {self.out_channels}, {oh}, {ow})"
            )
        g2d = grad_output.transpose(1, 0, 2, 3).reshape(self.out_channels, N * oh * ow)
        kh, kw = self.kernel_size
        self.grad_weight[...] = (g2d @ self._cache_cols.T).reshape(self.weight.shape)
        if self.use_bias:
            np.sum(g2d, axis=1, out=self.grad_bias)
        if not input_grad:
            return None
        w2d = self.weight.reshape(self.out_channels, self.in_channels * kh * kw)
        grad_cols = w2d.T @ g2d
        if telemetry.nn_profiling:
            t0 = time.perf_counter()
            out = col2im(
                grad_cols, x_shape, self.kernel_size, self.stride, self.padding
            )
            telemetry.observe(
                "nn.conv2d.col2im_seconds", time.perf_counter() - t0
            )
            return out
        return col2im(grad_cols, x_shape, self.kernel_size, self.stride, self.padding)

    def parameters(self) -> List[np.ndarray]:
        if self.use_bias:
            return [self.weight, self.bias]
        return [self.weight]

    def gradients(self) -> List[np.ndarray]:
        if self.use_bias:
            return [self.grad_weight, self.grad_bias]
        return [self.grad_weight]
