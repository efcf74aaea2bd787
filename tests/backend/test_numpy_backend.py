"""Tests for the repro.backend seam and the NumPy backend."""

import numpy as np
import pytest

from repro.backend import (
    ArrayBackend,
    NumpyBackend,
    get_backend,
    set_backend,
    use_backend,
)


class TestSeam:
    def test_default_is_numpy(self):
        be = get_backend()
        assert isinstance(be, NumpyBackend)
        assert be.name == "numpy"

    def test_use_backend_scopes_and_restores(self):
        other = NumpyBackend()
        before = get_backend()
        with use_backend(other):
            assert get_backend() is other
        assert get_backend() is before

    def test_use_backend_restores_on_error(self):
        other = NumpyBackend()
        before = get_backend()
        with pytest.raises(RuntimeError):
            with use_backend(other):
                raise RuntimeError("boom")
        assert get_backend() is before

    def test_set_backend_returns_previous(self):
        other = NumpyBackend()
        previous = set_backend(other)
        try:
            assert get_backend() is other
        finally:
            set_backend(previous)

    def test_abstract_interface(self):
        with pytest.raises(TypeError):
            ArrayBackend()  # abstract


class TestNumpyBackendOps:
    def setup_method(self):
        self.be = NumpyBackend()
        self.rng = np.random.default_rng(0)

    def test_matmul_matches_numpy(self):
        A = self.rng.standard_normal((5, 7))
        B = self.rng.standard_normal((7, 3))
        np.testing.assert_array_equal(self.be.matmul(A, B), A @ B)

    def test_batched_matmul_bitwise_per_slice(self):
        """The bit-identity contract: each slice equals its 2-D matmul."""
        A = self.rng.standard_normal((4, 5, 7))
        B = self.rng.standard_normal((4, 7, 3))
        C = self.be.batched_matmul(A, B)
        for k in range(4):
            np.testing.assert_array_equal(C[k], A[k] @ B[k])

    def test_batched_matmul_out(self):
        A = self.rng.standard_normal((2, 3, 4))
        B = self.rng.standard_normal((2, 4, 5))
        out = np.empty((2, 3, 5))
        ret = self.be.batched_matmul(A, B, out=out)
        assert ret is out
        np.testing.assert_array_equal(out, A @ B)

    def test_gather_rows(self):
        X = self.rng.standard_normal((10, 4))
        idx = np.array([7, 1, 3])
        np.testing.assert_array_equal(self.be.gather_rows(X, idx), X[idx])

    def test_gather_rows_out(self):
        X = self.rng.standard_normal((10, 4))
        idx = np.array([0, 9])
        out = np.empty((2, 4))
        ret = self.be.gather_rows(X, idx, out=out)
        assert ret is out
        np.testing.assert_array_equal(out, X[idx])
