"""Property-based tests for aggregation rules."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.fl.aggregation import weighted_average

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def vector_stack(draw, min_vectors=1, max_vectors=8, dim=5):
    n = draw(st.integers(min_value=min_vectors, max_value=max_vectors))
    return [draw(arrays(np.float64, (dim,), elements=finite)) for _ in range(n)]


@st.composite
def stack_with_weights(draw):
    vecs = draw(vector_stack())
    weights = draw(
        st.lists(
            st.floats(min_value=1e-3, max_value=1e3),
            min_size=len(vecs),
            max_size=len(vecs),
        )
    )
    return vecs, weights


class TestWeightedAverageProperties:
    @given(stack_with_weights())
    @settings(max_examples=150, deadline=None)
    def test_within_coordinatewise_hull(self, data):
        """A convex combination lies in the coordinate-wise hull."""
        vecs, weights = data
        out = weighted_average(vecs, weights)
        stacked = np.stack(vecs)
        span = np.max(np.abs(stacked)) + 1.0
        assert np.all(out >= stacked.min(axis=0) - 1e-9 * span)
        assert np.all(out <= stacked.max(axis=0) + 1e-9 * span)

    @given(vector_stack(), finite)
    @settings(max_examples=100, deadline=None)
    def test_translation_equivariance(self, vecs, shift):
        out = weighted_average(vecs)
        shifted = weighted_average([v + shift for v in vecs])
        span = max(1.0, abs(shift), max(np.max(np.abs(v)) for v in vecs))
        np.testing.assert_allclose(shifted, out + shift, atol=1e-7 * span)

    @given(stack_with_weights())
    @settings(max_examples=100, deadline=None)
    def test_weight_scale_invariance(self, data):
        vecs, weights = data
        a = weighted_average(vecs, weights)
        b = weighted_average(vecs, [w * 7.5 for w in weights])
        np.testing.assert_allclose(a, b, atol=1e-9 * (1 + np.max(np.abs(a))))

    @given(arrays(np.float64, (5,), elements=finite), st.integers(2, 6))
    @settings(max_examples=100, deadline=None)
    def test_identical_vectors_fixed_point(self, v, n):
        np.testing.assert_allclose(
            weighted_average([v] * n), v, atol=1e-12 * (1 + np.max(np.abs(v)))
        )
