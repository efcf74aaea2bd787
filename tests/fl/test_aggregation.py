"""Tests for repro.fl.aggregation."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.fl.aggregation import weighted_average


class TestWeightedAverage:
    def test_uniform_default(self):
        out = weighted_average([np.array([0.0, 2.0]), np.array([2.0, 0.0])])
        np.testing.assert_allclose(out, [1.0, 1.0])

    def test_weights_applied(self):
        out = weighted_average(
            [np.array([0.0]), np.array([10.0])], weights=[1.0, 3.0]
        )
        np.testing.assert_allclose(out, [7.5])

    def test_weights_renormalized(self):
        a = weighted_average([np.zeros(2), np.ones(2)], weights=[2, 6])
        b = weighted_average([np.zeros(2), np.ones(2)], weights=[0.25, 0.75])
        np.testing.assert_allclose(a, b)

    def test_out_buffer_used(self):
        buf = np.zeros(2)
        out = weighted_average([np.ones(2)], out=buf)
        assert out is buf
        np.testing.assert_allclose(buf, 1.0)

    def test_single_vector_identity(self):
        v = np.array([3.0, -1.0])
        np.testing.assert_allclose(weighted_average([v]), v)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            weighted_average([])

    def test_ragged_rejected(self):
        with pytest.raises(DimensionMismatchError):
            weighted_average([np.zeros(2), np.zeros(3)])

    def test_weight_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            weighted_average([np.zeros(2)], weights=[1.0, 2.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            weighted_average([np.zeros(2), np.zeros(2)], weights=[1.0, -1.0])

    def test_zero_weight_sum_rejected(self):
        with pytest.raises(ConfigurationError):
            weighted_average([np.zeros(2)], weights=[0.0])
