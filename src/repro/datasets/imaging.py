"""Shared image-synthesis machinery for the MNIST-like surrogates.

Class prototypes are coarse 7x5 bitmaps (a classic dot-matrix font for
digits, silhouettes for garments), upsampled to 28x28 and perturbed per
sample with random rotation, translation, blur, amplitude jitter, and
pixel noise.  The result is a ten-class image corpus with genuine
within-class variation and between-class structure — enough to make a
CNN meaningfully better than random and to drive the paper's non-IID
partition mechanics.  (See DESIGN.md §2 for why this substitution
preserves the experiments' shape.)
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np
from scipy import ndimage

from repro.exceptions import ConfigurationError
from repro.utils.rng import SeedLike, as_generator

IMAGE_SIZE = 28
GRID_ROWS = 7
GRID_COLS = 5


def render_prototype(bitmap_rows: Sequence[str]) -> np.ndarray:
    """Upsample a 7x5 '#'-bitmap to a centered 28x28 float image."""
    if len(bitmap_rows) != GRID_ROWS or any(len(r) != GRID_COLS for r in bitmap_rows):
        raise ConfigurationError(
            f"prototype bitmaps must be {GRID_ROWS}x{GRID_COLS} strings"
        )
    coarse = np.array(
        [[1.0 if ch == "#" else 0.0 for ch in row] for row in bitmap_rows],
        dtype=np.float64,
    )
    # 7x5 -> 21x15 by pixel replication, then pad to 28x28 centered.
    fine = np.kron(coarse, np.ones((3, 3)))
    out = np.zeros((IMAGE_SIZE, IMAGE_SIZE), dtype=np.float64)
    r0 = (IMAGE_SIZE - fine.shape[0]) // 2
    c0 = (IMAGE_SIZE - fine.shape[1]) // 2
    out[r0 : r0 + fine.shape[0], c0 : c0 + fine.shape[1]] = fine
    return ndimage.gaussian_filter(out, sigma=0.6)


#: Images per chunk.  The tail keeps a texture and a noise stack of this
#: many 28x28 images (about 1.6 MB each); one chunk for a whole
#: 2,400-image corpus raised the build's peak RSS from 90 to 102 MiB.
CHUNK_SIZE = 256


def _shift_into(out: np.ndarray, img: np.ndarray, dy: int, dx: int) -> None:
    """Write ``img`` translated by whole pixels ``(dy, dx)`` into ``out``.

    Equals ``ndimage.shift(img, (dy, dx), order=1, mode="constant")`` on
    finite images: pixels shifted in from outside are 0.0, and adding
    0.0 turns -0.0 into +0.0 as ndimage's interpolation does.
    """
    h, w = img.shape
    out.fill(0.0)
    if abs(dy) < h and abs(dx) < w:
        np.add(
            img[max(-dy, 0) : h - max(dy, 0), max(-dx, 0) : w - max(dx, 0)],
            0.0,
            out=out[max(dy, 0) : h - max(-dy, 0), max(dx, 0) : w - max(-dx, 0)],
        )


def _perturb_chunk(
    out: np.ndarray,
    prototypes: Sequence[np.ndarray],
    rng: np.random.Generator,
    *,
    max_rotation: float = 14.0,
    max_shift: int = 3,
    blur_range: Tuple[float, float] = (0.4, 1.1),
    noise_std: float = 0.08,
    texture_std: float = 0.0,
) -> None:
    """Perturb ``prototypes[j]`` into ``out[j]`` for a stack ``out`` (m, H, W).

    Phase 1 walks the images and makes every draw in the per-image
    order (angle, shift, blur sigma, amplitude, texture, noise) while
    doing the geometric warps; phase 2 then applies the pixel-wise tail
    to the whole stack.  The texture filter's sigma of 0 on the stack
    axis skips that axis, so each image is filtered exactly as alone.
    """
    m = out.shape[0]
    rotated = np.empty(out.shape[1:])
    shifted = np.empty(out.shape[1:])
    amp = np.empty((m, 1, 1))
    texture = np.empty(out.shape) if texture_std > 0.0 else None
    noise = np.empty(out.shape)
    for j in range(m):
        angle = rng.uniform(-max_rotation, max_rotation)
        ndimage.rotate(
            prototypes[j], angle, reshape=False, order=1, mode="constant",
            output=rotated,
        )
        dy, dx = rng.integers(-max_shift, max_shift + 1, size=2)
        _shift_into(shifted, rotated, int(dy), int(dx))
        ndimage.gaussian_filter(
            shifted, sigma=rng.uniform(*blur_range), output=out[j]
        )
        amp[j] = rng.uniform(0.75, 1.0)
        if texture is not None:
            rng.standard_normal(out=texture[j])
        rng.standard_normal(out=noise[j])
    out *= amp
    if texture is not None:
        # Low-frequency multiplicative texture (garment-like shading).
        ndimage.gaussian_filter(texture, sigma=(0.0, 3.0, 3.0), output=texture)
        texture *= texture_std
        texture += 1.0
        out *= texture
    noise *= noise_std
    out += noise
    np.clip(out, 0.0, 1.0, out=out)


def perturb(
    prototype: np.ndarray,
    rng: np.random.Generator,
    *,
    max_rotation: float = 14.0,
    max_shift: int = 3,
    blur_range: Tuple[float, float] = (0.4, 1.1),
    noise_std: float = 0.08,
    texture_std: float = 0.0,
) -> np.ndarray:
    """One randomized sample from a class prototype, clipped to [0, 1]."""
    out = np.empty((1,) + prototype.shape)
    _perturb_chunk(
        out, [prototype], rng, max_rotation=max_rotation, max_shift=max_shift,
        blur_range=blur_range, noise_std=noise_std, texture_std=texture_std,
    )
    return out[0]


def synthesize_corpus(
    prototypes: Dict[int, np.ndarray],
    num_samples: int,
    *,
    seed: SeedLike = None,
    class_skew: float = 0.0,
    **perturb_kwargs,
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw a labeled corpus of perturbed prototype images.

    Returns flat feature rows ``(num_samples, 784)`` and integer labels.
    ``class_skew > 0`` tilts the class prior (Zipf-like) so the global
    corpus itself is imbalanced, adding another layer of heterogeneity.
    The images are perturbed ``CHUNK_SIZE`` at a time; the draws, and so
    the bytes, are those of one :func:`perturb` call per image.
    """
    if num_samples < 1:
        raise ConfigurationError("num_samples must be >= 1")
    rng = as_generator(seed)
    classes = np.array(sorted(prototypes.keys()))
    ranks = np.arange(1, len(classes) + 1, dtype=np.float64)
    prior = np.power(ranks, -class_skew)
    prior /= prior.sum()
    labels = rng.choice(classes, size=num_samples, p=prior)
    X = np.empty((num_samples, IMAGE_SIZE * IMAGE_SIZE), dtype=np.float64)
    images = X.reshape(num_samples, IMAGE_SIZE, IMAGE_SIZE)
    for start in range(0, num_samples, CHUNK_SIZE):
        stop = min(start + CHUNK_SIZE, num_samples)
        _perturb_chunk(
            images[start:stop],
            [prototypes[int(lab)] for lab in labels[start:stop]],
            rng,
            **perturb_kwargs,
        )
    return X, labels.astype(int)
