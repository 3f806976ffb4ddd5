"""Unit tests for repro.kronecker.product and operators."""

import numpy as np
import pytest

from repro.errors import AssumptionError, GraphFormatError
from repro.graph import EdgeList, clique, cycle, erdos_renyi, path
from repro.groundtruth import edge_count_full_loops
from repro.kronecker import (
    iter_kron_product,
    kron_edge_block,
    kron_product,
    kron_product_many,
    kron_with_full_loops,
    product_size,
    require_full_self_loops,
    require_no_self_loops,
    require_symmetric,
)


def dense_kron_reference(el_a, el_b):
    """Reference: dense numpy kron of boolean adjacencies."""
    a = el_a.to_scipy_sparse().toarray()
    b = el_b.to_scipy_sparse().toarray()
    return np.kron(a, b)


class TestKronProduct:
    def test_matches_dense_kron(self, er_a, er_b):
        c = kron_product(er_a, er_b)
        ref = dense_kron_reference(er_a, er_b)
        got = c.to_scipy_sparse().toarray()
        assert np.array_equal(got, ref)

    def test_with_self_loops_matches_dense(self, er_a, er_b):
        a = er_a.with_full_self_loops()
        b = er_b.with_full_self_loops()
        c = kron_product(a, b)
        assert np.array_equal(
            c.to_scipy_sparse().toarray(), dense_kron_reference(a, b)
        )

    def test_edge_count_is_product(self, k4, c5):
        c = kron_product(k4, c5)
        assert c.m_directed == k4.m_directed * c5.m_directed

    def test_empty_factor(self):
        e = EdgeList(np.empty((0, 2)), n=3)
        c = kron_product(e, clique(3))
        assert c.n == 9 and c.m_directed == 0

    def test_symmetry_preserved(self, k4, c5):
        assert kron_product(k4, c5).is_symmetric()

    def test_noncommutative_but_isomorphic_size(self, k4, c5):
        ab = kron_product(k4, c5)
        ba = kron_product(c5, k4)
        assert ab.n == ba.n and ab.m_directed == ba.m_directed

    def test_product_size_no_materialization(self, er_a, er_b):
        n, m = product_size(er_a, er_b)
        c = kron_product(er_a, er_b)
        assert (n, m) == (c.n, c.m_directed)


class TestKronEdgeBlock:
    def test_block_order_a_major(self):
        ea = np.array([[0, 1], [1, 0]])
        eb = np.array([[0, 0], [1, 1]])
        out = kron_edge_block(ea, eb, n_b=2)
        # first two rows expand A-edge (0,1)
        assert np.array_equal(out[:2, 0], [0, 1])
        assert np.array_equal(out[:2, 1], [2, 3])

    def test_empty_blocks(self):
        empty = np.empty((0, 2), dtype=np.int64)
        assert len(kron_edge_block(empty, np.array([[0, 1]]), 2)) == 0
        assert len(kron_edge_block(np.array([[0, 1]]), empty, 2)) == 0


class TestIterKronProduct:
    @pytest.mark.parametrize("chunk", [1, 7, 64, 10_000])
    def test_chunks_concatenate_to_full_product(self, er_a, er_b, chunk):
        full = kron_product(er_a, er_b)
        chunks = list(iter_kron_product(er_a, er_b, chunk))
        assert np.array_equal(np.vstack(chunks), full.edges)

    @pytest.mark.parametrize("chunk", [1, 5, 33])
    def test_chunk_size_respected(self, er_a, er_b, chunk):
        for blk in iter_kron_product(er_a, er_b, chunk):
            assert len(blk) <= chunk

    def test_empty_yields_nothing(self):
        e = EdgeList(np.empty((0, 2)), n=2)
        assert list(iter_kron_product(e, clique(2), 10)) == []


class TestKronPower:
    """Self-powers ``A (x) ... (x) A`` are ``kron_product_many([A] * k)``."""

    def test_power_one_identity(self, c5):
        assert kron_product_many([c5]) == c5

    def test_power_two_equals_product(self, c5):
        assert kron_product_many([c5] * 2) == kron_product(c5, c5)

    def test_power_three_size(self):
        p = path(2)
        c = kron_product_many([p] * 3)
        assert c.n == 8 and c.m_directed == p.m_directed**3

    def test_bad_power(self, c5):
        with pytest.raises(GraphFormatError):
            kron_product_many([c5] * 0)


class TestOperators:
    def test_kron_with_full_loops_has_loops_everywhere(self, k4, c5):
        c = kron_with_full_loops(k4, c5)
        assert c.has_full_self_loops()

    def test_kron_with_full_loops_idempotent_on_loops(self, k4, c5):
        a = k4.with_full_self_loops()
        assert kron_with_full_loops(a, c5) == kron_with_full_loops(k4, c5)

    def test_full_loop_edge_count_law(self, er_a, er_b):
        law = edge_count_full_loops(
            er_a.num_undirected_edges, er_a.n, er_b.num_undirected_edges, er_b.n
        )
        c = kron_with_full_loops(er_a, er_b)
        assert law == c.num_undirected_edges

    def test_require_no_self_loops(self, k4):
        require_no_self_loops(k4)
        with pytest.raises(AssumptionError):
            require_no_self_loops(k4.with_full_self_loops())

    def test_require_full_self_loops(self, k4):
        require_full_self_loops(k4.with_full_self_loops())
        with pytest.raises(AssumptionError):
            require_full_self_loops(k4)

    def test_require_symmetric(self, k4):
        require_symmetric(k4)
        with pytest.raises(AssumptionError):
            require_symmetric(EdgeList.from_pairs([(0, 1)], n=2))


class TestMixedProductProperty:
    """Prop. 1(d): (A1 (x) A2)(A3 (x) A4) = (A1 A3) (x) (A2 A4) on patterns."""

    def test_mixed_product(self, er_a, er_b):
        a = er_a.to_scipy_sparse().toarray()
        b = er_b.to_scipy_sparse().toarray()
        lhs = np.kron(a, b) @ np.kron(a, b)
        rhs = np.kron(a @ a, b @ b)
        assert np.allclose(lhs, rhs)
