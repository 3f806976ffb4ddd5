"""Unit tests for repro.util.validation and chunking."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.util.chunking import chunk_bounds
from repro.util.validation import (
    check_edge_array,
    check_positive_int,
    check_probability,
    check_square_ids,
)


class TestCheckPositiveInt:
    def test_accepts_positive(self):
        assert check_positive_int(5, "x") == 5

    @pytest.mark.parametrize("bad", [0, -1, 2.5])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            check_positive_int(bad, "x")


class TestCheckProbability:
    @pytest.mark.parametrize("ok", [0.0, 0.5, 1.0])
    def test_accepts(self, ok):
        assert check_probability(ok, "p") == ok

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            check_probability(bad, "p")


class TestCheckEdgeArray:
    def test_empty_ok(self):
        out = check_edge_array(np.empty((0, 2)))
        assert out.shape == (0, 2) and out.dtype == np.int64

    def test_wrong_shape_rejected(self):
        with pytest.raises(GraphFormatError):
            check_edge_array(np.zeros((3, 3), dtype=np.int64))

    def test_negative_rejected(self):
        with pytest.raises(GraphFormatError):
            check_edge_array(np.array([[0, -1]]))

    def test_float_integral_accepted(self):
        out = check_edge_array(np.array([[1.0, 2.0]]))
        assert out.dtype == np.int64

    def test_float_fractional_rejected(self):
        with pytest.raises(GraphFormatError):
            check_edge_array(np.array([[1.5, 2.0]]))

    def test_square_ids(self):
        edges = np.array([[0, 4]], dtype=np.int64)
        check_square_ids(edges, 5)
        with pytest.raises(GraphFormatError):
            check_square_ids(edges, 4)


class TestChunking:
    def test_bounds_cover_range(self):
        bounds = chunk_bounds(10, 3)
        assert bounds == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_zero_total(self):
        assert chunk_bounds(0, 5) == []

    def test_bad_args(self):
        with pytest.raises(ValueError):
            chunk_bounds(-1, 5)
        with pytest.raises(ValueError):
            chunk_bounds(5, 0)
