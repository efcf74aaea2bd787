"""im2col / col2im: the vectorization backbone of the Conv2D layer.

Convolution as matrix multiplication: every receptive-field patch is
unrolled into a column, so the convolution becomes a single GEMM — the
classic HPC trick that turns a six-deep Python loop into one BLAS call.
``im2col`` is implemented with stride tricks (a zero-copy sliding-window
view followed by one reshape-copy), ``col2im`` with one strided slice
add per kernel offset.

Layout conventions: images are ``(N, C, H, W)``; columns are
``(C*KH*KW, N*OH*OW)``.

The column matrix is the dominant transient allocation of a CNN step
(``C*KH*KW x N*OH*OW`` doubles, re-made every forward).  ``im2col``
therefore accepts an ``out=`` buffer, and :class:`Im2colScratch` keeps
one correctly-shaped buffer alive across same-geometry calls — the
shapes are fixed for a whole training run, so after the first call the
lowering is a single strided copy with no allocator traffic.
``padding > 0`` still allocates a padded copy of the input per call
(``np.pad``); :class:`repro.nn.Conv2D` instead pads into a buffer it
keeps and lowers that with ``padding=0``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.exceptions import ConfigurationError, DimensionMismatchError


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling along one axis."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ConfigurationError(
            f"non-positive conv output size for input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def _check_geometry(
    x_shape: Tuple[int, int, int, int], kernel: Tuple[int, int], stride: int, padding: int
) -> Tuple[int, int]:
    if len(x_shape) != 4:
        raise DimensionMismatchError(f"expected NCHW input, got shape {x_shape}")
    if stride < 1 or padding < 0:
        raise ConfigurationError(f"invalid stride={stride} or padding={padding}")
    _, _, H, W = x_shape
    kh, kw = kernel
    return (
        conv_output_size(H, kh, stride, padding),
        conv_output_size(W, kw, stride, padding),
    )


def sliding_windows(
    x: np.ndarray, kernel: Tuple[int, int], stride: int
) -> np.ndarray:
    """Zero-copy view of all ``(kh, kw)`` windows of an NCHW array.

    Returns shape ``(N, C, OH, OW, KH, KW)``.  The caller must not
    mutate the view (it aliases ``x`` heavily).
    """
    N, C, H, W = x.shape
    kh, kw = kernel
    oh = (H - kh) // stride + 1
    ow = (W - kw) // stride + 1
    sn, sc, sh, sw = x.strides
    return as_strided(
        x,
        shape=(N, C, oh, ow, kh, kw),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )


def im2col(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: int = 1,
    padding: int = 0,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Unroll image patches into columns.

    Parameters
    ----------
    x:
        Input images ``(N, C, H, W)``.
    out:
        Optional preallocated ``(C*KH*KW, N*OH*OW)`` float64 C-order
        buffer (e.g. from :class:`Im2colScratch`); fully overwritten.

    Returns
    -------
    Columns of shape ``(C*KH*KW, N*OH*OW)`` where each column is one
    receptive field, ordered with the batch index slowest.  The same
    object as ``out`` when one is given.
    """
    x = np.asarray(x, dtype=np.float64)
    oh, ow = _check_geometry(x.shape, kernel, stride, padding)
    if padding > 0:
        x = np.pad(
            x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
        )
    windows = sliding_windows(x, kernel, stride)
    N, C = x.shape[0], x.shape[1]
    kh, kw = kernel
    cols_shape = (C * kh * kw, N * oh * ow)
    # (N, C, OH, OW, KH, KW) -> (C, KH, KW, N, OH, OW) -> 2-D
    patches = windows.transpose(1, 4, 5, 0, 2, 3)
    if out is None:
        return np.ascontiguousarray(patches).reshape(cols_shape)
    if (
        out.shape != cols_shape
        or out.dtype != np.float64
        or not out.flags.c_contiguous
    ):
        raise DimensionMismatchError(
            f"out buffer {out.shape}/{out.dtype} does not match a C-order "
            f"float64 {cols_shape} column matrix"
        )
    # One strided copy straight into the caller's buffer — no transient.
    np.copyto(out.reshape(C, kh, kw, N, oh, ow), patches)
    return out


class Im2colScratch:
    """One reusable column buffer keyed by shape.

    Same-geometry :func:`im2col` calls (the steady state of a training
    run) reuse the buffer; a shape change reallocates;``invalidate``
    drops it explicitly.  Not thread-safe — intended as per-layer state,
    and layers are already per-call serialized.
    """

    def __init__(self) -> None:
        self._buffer: Optional[np.ndarray] = None

    def request(self, shape: Tuple[int, int]) -> np.ndarray:
        """A float64 C-order buffer of ``shape`` (contents undefined)."""
        if self._buffer is None or self._buffer.shape != tuple(shape):
            self._buffer = np.empty(shape, dtype=np.float64)
        return self._buffer

    def invalidate(self) -> None:
        """Drop the buffer; the next :meth:`request` reallocates."""
        self._buffer = None


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back to image space.

    Overlapping patches accumulate, which makes ``col2im`` the exact
    transpose operator needed by the convolution backward pass.
    """
    N, C, H, W = x_shape
    kh, kw = kernel
    oh, ow = _check_geometry(x_shape, kernel, stride, padding)
    if cols.shape != (C * kh * kw, N * oh * ow):
        raise DimensionMismatchError(
            f"cols shape {cols.shape} inconsistent with image shape {x_shape}, "
            f"kernel {kernel}, stride {stride}, padding {padding}"
        )
    Hp, Wp = H + 2 * padding, W + 2 * padding
    padded = np.zeros((N, C, Hp, Wp), dtype=np.float64)
    patches = cols.reshape(C, kh, kw, N, oh, ow).transpose(3, 0, 4, 5, 1, 2)
    # Accumulate each kernel offset as a strided slice add: O(kh*kw)
    # vectorized adds instead of a Python loop over every patch.
    for i in range(kh):
        h_end = i + stride * oh
        for j in range(kw):
            w_end = j + stride * ow
            padded[:, :, i:h_end:stride, j:w_end:stride] += patches[:, :, :, :, i, j]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded
