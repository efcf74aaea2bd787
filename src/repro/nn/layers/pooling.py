"""Max-pooling layer."""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.nn.im2col import conv_output_size, sliding_windows
from repro.nn.module import Module


class MaxPool2D(Module):
    """Non-overlapping-or-strided 2-D max pooling over NCHW inputs.

    The forward pass uses the zero-copy sliding-window view; an eval
    forward reduces it with ``max``.  The backward pass routes each
    upstream gradient to the argmax location of its window (ties go to
    the first maximum in row-major window order, matching ``argmax``
    semantics).

    A train-mode forward copies the windows once into ``K = ph * pw``
    slot planes and runs a first-max tournament over them: slot ``k``
    takes a window over only if it is strictly greater than the running
    maximum, so ties keep the earlier slot, as ``argmax`` does.  A
    window holding a NaN takes its first NaN's slot, also as
    ``argmax`` does.  The output is the element at that slot.  That is
    ``max``'s value bit for bit, except that a window whose maximum is a
    zero held with both signs yields the sign of its first zero.  The
    slot codes are kept as ``uint8`` (``intp`` when ``K > 255``).
    """

    def __init__(
        self,
        pool_size: Union[int, Tuple[int, int]] = 2,
        *,
        stride: Optional[int] = None,
    ) -> None:
        if isinstance(pool_size, tuple):
            self.pool_size = (int(pool_size[0]), int(pool_size[1]))
        else:
            self.pool_size = (int(pool_size), int(pool_size))
        if min(self.pool_size) < 1:
            raise ConfigurationError(f"invalid pool_size {self.pool_size}")
        self.stride = int(stride) if stride is not None else self.pool_size[0]
        if self.stride < 1:
            raise ConfigurationError(f"invalid stride {self.stride}")
        self._cache_x_shape: Optional[Tuple[int, int, int, int]] = None
        self._cache_argmax: Optional[np.ndarray] = None

    def output_shape(self, input_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        """Per-sample output shape ``(C, OH, OW)`` for a CHW input."""
        C, H, W = input_shape
        ph, pw = self.pool_size
        oh = conv_output_size(H, ph, self.stride, 0)
        ow = conv_output_size(W, pw, self.stride, 0)
        return (C, oh, ow)

    def forward(self, x: np.ndarray, *, train: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4:
            raise DimensionMismatchError(f"MaxPool2D expected NCHW, got {x.shape}")
        windows = sliding_windows(x, self.pool_size, self.stride)
        N, C, oh, ow, ph, pw = windows.shape
        if not train:
            return windows.reshape(N, C, oh, ow, ph * pw).max(axis=-1)
        K = ph * pw
        # One copy: row k holds slot k of every window.
        slots = windows.transpose(4, 5, 0, 1, 2, 3)
        planes = np.ascontiguousarray(slots).reshape(K, -1)
        M = planes.shape[1]
        peak = planes[0].copy()
        argmax = np.zeros(M, dtype=np.uint8 if K <= 255 else np.intp)
        better = np.empty(M, dtype=bool)
        for k in range(1, K):
            np.greater(planes[k], peak, out=better)
            # Codes only grow, so the max with ``k * better`` writes k
            # exactly where slot k is strictly greater.
            np.maximum(argmax, better * argmax.dtype.type(k), out=argmax)
            np.maximum(peak, planes[k], out=peak)
        # ``>`` never picks a NaN, but ``maximum`` propagates it, so
        # ``peak`` is NaN exactly in the windows holding one: then every
        # code comes from ``argmax``, whose first NaN wins.
        if np.isnan(peak).any():
            argmax = np.argmax(planes, axis=0).astype(argmax.dtype)
        # ``peak`` is the maximum's value, but may hold the other sign
        # of a tied zero: gather the element itself.
        flat_idx = argmax * np.intp(M)
        flat_idx += np.arange(M)
        out = np.take(planes, flat_idx)
        self._cache_x_shape = x.shape
        self._cache_argmax = argmax.reshape(N, C, oh, ow)
        return out.reshape(N, C, oh, ow)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_x_shape is None or self._cache_argmax is None:
            raise RuntimeError("backward called before forward(train=True)")
        N, C, H, W = self._cache_x_shape
        argmax = self._cache_argmax
        oh, ow = argmax.shape[2], argmax.shape[3]
        grad_output = np.asarray(grad_output, dtype=np.float64)
        if grad_output.shape != (N, C, oh, ow):
            raise DimensionMismatchError(
                f"grad_output shape {grad_output.shape} != {(N, C, oh, ow)}"
            )
        ph, pw = self.pool_size
        s = self.stride
        grad_input = np.zeros((N, C, H, W), dtype=np.float64)
        # Decode window-local argmax to absolute coordinates.
        local_r, local_c = np.divmod(argmax, pw)
        rows = np.arange(oh)[:, None] * s + local_r
        cols = np.arange(ow) * s + local_c
        if s >= ph and s >= pw:
            # Windows cannot overlap, so every slot receives at most one
            # gradient: a buffered ``+=`` through one flat index computes
            # ``0.0 + g`` per slot, the exact sum ``np.add.at`` forms
            # (which also turns a -0.0 gradient into +0.0).
            planes = np.arange(N * C).reshape(N, C, 1, 1) * H
            grad_input.reshape(-1)[(planes + rows) * W + cols] += grad_output
            return grad_input
        # Overlapping windows: several gradients may share a slot.
        n_idx = np.repeat(np.arange(N), C * oh * ow)
        c_idx = np.tile(np.repeat(np.arange(C), oh * ow), N)
        np.add.at(
            grad_input, (n_idx, c_idx, rows.ravel(), cols.ravel()), grad_output.ravel()
        )
        return grad_input
