"""The chunked image corpus against the per-image pipeline it replaced.

``reference_perturb`` and ``reference_corpus`` are the per-image
pipeline that built every image corpus before ``synthesize_corpus``
worked in chunks: one ``perturb`` call per image, each making its own
draws and its own ``scipy.ndimage`` calls.  The chunked build must
reproduce their bytes exactly and leave the generator where they left
it, on whatever numpy and scipy versions run the tests, so the tests
compare against this code rather than against stored digests.
"""

import numpy as np
import pytest
from scipy import ndimage

from repro.datasets.digits import digit_prototypes
from repro.datasets.fashion import garment_prototypes
from repro.datasets.imaging import (
    CHUNK_SIZE,
    IMAGE_SIZE,
    _shift_into,
    perturb,
    synthesize_corpus,
)

FASHION_KWARGS = dict(max_rotation=8.0, texture_std=0.25, noise_std=0.06)


def reference_perturb(
    prototype,
    rng,
    *,
    max_rotation=14.0,
    max_shift=3,
    blur_range=(0.4, 1.1),
    noise_std=0.08,
    texture_std=0.0,
):
    img = prototype
    angle = rng.uniform(-max_rotation, max_rotation)
    img = ndimage.rotate(img, angle, reshape=False, order=1, mode="constant")
    shift = rng.integers(-max_shift, max_shift + 1, size=2)
    img = ndimage.shift(img, shift, order=1, mode="constant")
    img = ndimage.gaussian_filter(img, sigma=rng.uniform(*blur_range))
    img = img * rng.uniform(0.75, 1.0)
    if texture_std > 0.0:
        # Low-frequency multiplicative texture (garment-like shading).
        texture = ndimage.gaussian_filter(
            rng.standard_normal(img.shape), sigma=3.0
        )
        img = img * (1.0 + texture_std * texture)
    img = img + rng.standard_normal(img.shape) * noise_std
    return np.clip(img, 0.0, 1.0)


def reference_corpus(prototypes, num_samples, rng, *, class_skew=0.0, **kwargs):
    classes = np.array(sorted(prototypes.keys()))
    ranks = np.arange(1, len(classes) + 1, dtype=np.float64)
    prior = np.power(ranks, -class_skew)
    prior /= prior.sum()
    labels = rng.choice(classes, size=num_samples, p=prior)
    X = np.empty((num_samples, IMAGE_SIZE * IMAGE_SIZE), dtype=np.float64)
    for i, lab in enumerate(labels):
        X[i] = reference_perturb(prototypes[int(lab)], rng, **kwargs).ravel()
    return X, labels.astype(int)


class TestCorpusMatchesPerImagePipeline:
    @pytest.mark.parametrize(
        "num_samples",
        [1, CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 1, 2 * CHUNK_SIZE + 3],
    )
    @pytest.mark.parametrize(
        "prototypes, kwargs, class_skew, seed",
        [
            (digit_prototypes(), {}, 0.0, 0),
            (garment_prototypes(), FASHION_KWARGS, 2.0, 1),
            (garment_prototypes(), FASHION_KWARGS, 0.0, 2),
        ],
        ids=["digits", "fashion-skew2", "fashion"],
    )
    def test_same_bytes_and_same_stream(
        self, num_samples, prototypes, kwargs, class_skew, seed
    ):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        X, y = synthesize_corpus(
            prototypes, num_samples, seed=rng, class_skew=class_skew, **kwargs
        )
        X_ref, y_ref = reference_corpus(
            prototypes, num_samples, ref_rng, class_skew=class_skew, **kwargs
        )
        assert X.tobytes() == X_ref.tobytes()
        assert y.tobytes() == y_ref.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("kwargs", [{}, FASHION_KWARGS], ids=["default", "fashion"])
    def test_perturb_matches_reference(self, kwargs):
        proto = garment_prototypes()[3]
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(3):
            img = perturb(proto, rng, **kwargs)
            assert img.shape == proto.shape
            assert img.tobytes() == reference_perturb(proto, ref_rng, **kwargs).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestIntegerShift:
    @staticmethod
    def _images():
        rng = np.random.default_rng(9)
        nonneg = rng.random((4, 28, 28))
        nonneg[rng.random(nonneg.shape) < 0.3] = 0.0
        nonneg[:, :6] = 0.0  # an all-zero band, as around a prototype
        signed = rng.standard_normal((4, 28, 28))
        signed[rng.random(signed.shape) < 0.3] = -0.0
        return list(nonneg) + list(signed)

    @pytest.mark.parametrize("dy", range(-3, 4))
    def test_matches_ndimage_shift(self, dy):
        out = np.empty((28, 28))
        for img in self._images():
            for dx in range(-3, 4):
                _shift_into(out, img, dy, dx)
                ref = ndimage.shift(img, (dy, dx), order=1, mode="constant")
                assert out.tobytes() == ref.tobytes(), (dy, dx)

    @pytest.mark.parametrize("dy, dx", [(28, 0), (0, -28), (-40, 5), (2, 31)])
    def test_shift_past_the_edge_is_all_zero(self, dy, dx):
        img = self._images()[0]
        out = np.full((28, 28), 7.0)
        _shift_into(out, img, dy, dx)
        ref = ndimage.shift(img, (dy, dx), order=1, mode="constant")
        assert out.tobytes() == ref.tobytes()
        assert not out.any()
