"""Unit tests for the content addresses of factors and parameters."""

import numpy as np

from repro.graph import EdgeList, clique
from repro.groundtruth.memo import factor_digest, params_key


class TestFactorDigest:
    def test_row_order_invariant(self):
        a = EdgeList.from_pairs([(0, 1), (1, 0), (2, 1)], n=3)
        b = EdgeList.from_pairs([(2, 1), (0, 1), (1, 0)], n=3)
        assert factor_digest(a) == factor_digest(b)

    def test_duplicates_collapse(self):
        a = EdgeList.from_pairs([(0, 1), (0, 1), (1, 0)], n=2)
        b = EdgeList.from_pairs([(0, 1), (1, 0)], n=2)
        assert factor_digest(a) == factor_digest(b)

    def test_different_edges_differ(self):
        a = EdgeList.from_pairs([(0, 1)], n=3)
        b = EdgeList.from_pairs([(0, 2)], n=3)
        assert factor_digest(a) != factor_digest(b)

    def test_different_n_differ(self):
        a = EdgeList.from_pairs([(0, 1)], n=2)
        b = EdgeList.from_pairs([(0, 1)], n=3)
        assert factor_digest(a) != factor_digest(b)

    def test_direction_matters(self):
        a = EdgeList.from_pairs([(0, 1)], n=2)
        b = EdgeList.from_pairs([(1, 0)], n=2)
        assert factor_digest(a) != factor_digest(b)

    def test_empty_factor_has_digest(self):
        el = EdgeList(np.empty((0, 2), dtype=np.int64), 3)
        assert isinstance(factor_digest(el), int)

    def test_digest_cached_on_instance(self):
        el = clique(4)
        first = factor_digest(el)
        assert el._repro_digest == first
        assert factor_digest(el) == first

    def test_equal_lists_distinct_objects_agree(self):
        assert factor_digest(clique(5)) == factor_digest(clique(5))


class TestParamsKey:
    def test_key_order_canonical(self):
        assert params_key({"a": 1, "b": 2}) == params_key({"b": 2, "a": 1})

    def test_distinct_values_distinct_keys(self):
        assert params_key({"p": 1}) != params_key({"p": 2})
