"""Tests for repro.utils.parameter_vector."""

import numpy as np
import pytest

from repro.exceptions import DimensionMismatchError
from repro.utils.parameter_vector import (
    ParameterSpec,
    flatten_arrays,
    unflatten_vector,
)


class TestFlattenArrays:
    def test_empty_gives_empty_vector(self):
        out = flatten_arrays([])
        assert out.shape == (0,)
        assert out.dtype == np.float64

    def test_concatenation_order(self):
        a = np.arange(4).reshape(2, 2)
        b = np.array([10.0, 11.0])
        out = flatten_arrays([a, b])
        np.testing.assert_array_equal(out, [0, 1, 2, 3, 10, 11])

    def test_casts_to_float64(self):
        out = flatten_arrays([np.array([1, 2], dtype=np.int32)])
        assert out.dtype == np.float64


class TestUnflattenVector:
    def test_roundtrip(self):
        shapes = [(3, 2), (5,), (1, 1, 4)]
        rng = np.random.default_rng(0)
        arrays = [rng.standard_normal(s) for s in shapes]
        vec = flatten_arrays(arrays)
        back = unflatten_vector(vec, shapes)
        for orig, rec in zip(arrays, back):
            np.testing.assert_allclose(orig, rec)

    def test_views_alias_vector(self):
        vec = np.zeros(6)
        pieces = unflatten_vector(vec, [(2, 2), (2,)])
        pieces[0][0, 0] = 5.0
        assert vec[0] == 5.0

    def test_wrong_size_raises(self):
        with pytest.raises(DimensionMismatchError):
            unflatten_vector(np.zeros(5), [(2, 2), (2,)])

    def test_wrong_ndim_raises(self):
        with pytest.raises(DimensionMismatchError):
            unflatten_vector(np.zeros((3, 2)), [(6,)])


class TestParameterSpec:
    def test_size_and_offsets(self):
        spec = ParameterSpec([(2, 3), (3,), (4, 1)])
        assert spec.size == 6 + 3 + 4
        assert spec.offsets == [0, 6, 9]

    def test_flatten_validates_shapes(self):
        spec = ParameterSpec([(2, 2)])
        with pytest.raises(DimensionMismatchError):
            spec.flatten([np.zeros((3, 2))])

    def test_flatten_validates_count(self):
        spec = ParameterSpec([(2, 2), (2,)])
        with pytest.raises(DimensionMismatchError):
            spec.flatten([np.zeros((2, 2))])

    def test_roundtrip(self):
        spec = ParameterSpec([(2, 3), (4,)])
        rng = np.random.default_rng(1)
        arrays = [rng.standard_normal(s) for s in spec.shapes]
        back = spec.unflatten(spec.flatten(arrays))
        for orig, rec in zip(arrays, back):
            np.testing.assert_allclose(orig, rec)

    def test_zeros(self):
        spec = ParameterSpec([(3,), (2, 2)])
        z = spec.zeros()
        assert z.shape == (7,)
        assert not z.any()

    def test_piece_views(self):
        spec = ParameterSpec([(2,), (3,)])
        vec = np.arange(5, dtype=np.float64)
        np.testing.assert_array_equal(spec.piece(vec, 0), [0, 1])
        np.testing.assert_array_equal(spec.piece(vec, 1), [2, 3, 4])

    def test_piece_out_of_range(self):
        spec = ParameterSpec([(2,)])
        with pytest.raises(IndexError):
            spec.piece(np.zeros(2), 1)

    def test_scalar_shapes(self):
        spec = ParameterSpec([(), (2,)])
        assert spec.size == 3
        vec = np.array([7.0, 1.0, 2.0])
        assert spec.piece(vec, 0).shape == ()
        assert float(spec.piece(vec, 0)) == 7.0


class TestSpecLayoutComputedOnce:
    SHAPES = [(60, 10), (10,), (), (2, 3, 4)]

    def test_unflatten_and_piece_match_unflatten_vector_views(self):
        spec = ParameterSpec(self.SHAPES)
        vec = np.arange(spec.size, dtype=np.float64)
        expected = unflatten_vector(vec, self.SHAPES)
        got = spec.unflatten(vec)
        assert len(got) == len(expected)
        for i, (a, b) in enumerate(zip(got, expected)):
            piece = spec.piece(vec, i)
            for view in (a, piece):
                assert view.base is not None and np.shares_memory(view, vec)
                assert view.shape == b.shape
                assert view.strides == b.strides
                assert (
                    view.__array_interface__["data"][0]
                    == b.__array_interface__["data"][0]
                )

    def test_wrong_size_or_index_still_raises(self):
        spec = ParameterSpec([(2, 2), (2,)])
        with pytest.raises(DimensionMismatchError):
            spec.unflatten(np.zeros(5))
        with pytest.raises(DimensionMismatchError):
            spec.unflatten(np.zeros((2, 3)))
        with pytest.raises(IndexError):
            spec.piece(np.zeros(6), 2)
        with pytest.raises(IndexError):
            spec.piece(np.zeros(6), -1)

    def test_no_per_call_size_arithmetic(self, monkeypatch):
        from repro.utils import parameter_vector

        spec = ParameterSpec(self.SHAPES)
        vec = np.ones(spec.size)

        def no_prod(*args, **kwargs):
            raise AssertionError("np.prod called after construction")

        monkeypatch.setattr(parameter_vector.np, "prod", no_prod)
        pieces = spec.unflatten(vec)
        assert [p.shape for p in pieces] == spec.shapes
        assert spec.piece(vec, 3).shape == (2, 3, 4)
