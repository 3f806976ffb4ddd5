"""Unit tests for repro.kronecker.lazy.KroneckerGraph."""

import numpy as np
import pytest

from repro.analytics import degrees as direct_degrees
from repro.errors import VertexRangeError
from repro.graph import CSRGraph, EdgeList, clique, cycle, erdos_renyi
from repro.kronecker import KroneckerGraph, kron_product
from repro.kronecker.lazy import _FactorMembership


@pytest.fixture
def lazy_and_dense(er_a, er_b):
    return KroneckerGraph(er_a, er_b), kron_product(er_a, er_b)


class TestGlobalCounts:
    def test_n_and_m(self, lazy_and_dense):
        lazy, dense = lazy_and_dense
        assert lazy.n == dense.n
        assert lazy.m_directed == dense.m_directed

    def test_self_loops_compose(self, er_a, er_b):
        a = er_a.with_full_self_loops()
        b = er_b.with_full_self_loops()
        lazy = KroneckerGraph(a, b)
        dense = kron_product(a, b)
        assert lazy.num_self_loops == dense.num_self_loops == dense.n

    def test_partial_loops(self):
        a = EdgeList.from_pairs([(0, 0), (0, 1), (1, 0)], n=2)
        b = EdgeList.from_pairs([(1, 1), (0, 1), (1, 0)], n=2)
        lazy = KroneckerGraph(a, b)
        assert lazy.num_self_loops == 1  # only (0 in A) x (1 in B)

    def test_undirected_count(self, er_a, er_b):
        lazy = KroneckerGraph(er_a, er_b)
        dense = kron_product(er_a, er_b)
        assert lazy.num_undirected_edges == dense.num_undirected_edges


class TestLocalQueries:
    def test_has_edge_agrees_everywhere(self, lazy_and_dense):
        lazy, dense = lazy_and_dense
        csr = CSRGraph.from_edgelist(dense)
        rng = np.random.default_rng(0)
        for _ in range(200):
            p, q = rng.integers(0, dense.n, size=2)
            assert lazy.has_edge(p, q) == csr.has_edge(p, q)

    def test_neighbors_sorted_and_correct(self, lazy_and_dense):
        lazy, dense = lazy_and_dense
        csr = CSRGraph.from_edgelist(dense)
        assert np.array_equal(
            lazy.degree_total(np.arange(dense.n)), csr.degrees_total()
        )
        for p in range(dense.n):
            got = lazy.neighbors(p)
            assert np.array_equal(got, np.sort(got))
            assert np.array_equal(got, csr.neighbors(p))
            # A limit is the prefix, whatever row of A it ends in.
            for limit in {0, 1, len(got) // 2, len(got) - 1, len(got), len(got) + 3}:
                if limit >= 0:
                    assert np.array_equal(lazy.neighbors(p, limit), got[:limit])

    def test_degree_vectorized(self, lazy_and_dense):
        lazy, dense = lazy_and_dense
        expect = direct_degrees(dense)
        assert np.array_equal(lazy.degrees(), expect)
        ps = np.arange(dense.n)
        assert np.array_equal(lazy.degree(ps), expect)

    def test_degree_with_loops(self, er_a, er_b):
        a = er_a.with_full_self_loops()
        b = er_b.with_full_self_loops()
        lazy = KroneckerGraph(a, b)
        dense = kron_product(a, b)
        assert np.array_equal(lazy.degrees(), direct_degrees(dense))

    def test_split_combine_roundtrip(self, lazy_and_dense):
        lazy, _ = lazy_and_dense
        p = np.arange(lazy.n)
        i, k = lazy.split_vertex(p)
        assert np.array_equal(lazy.combine_vertex(i, k), p)


class TestMaterialization:
    def test_to_edgelist(self, lazy_and_dense):
        lazy, dense = lazy_and_dense
        assert lazy.to_edgelist() == dense

    def test_iter_edges_total(self, lazy_and_dense):
        lazy, dense = lazy_and_dense
        total = sum(len(blk) for blk in lazy.iter_edges(chunk_size=37))
        assert total == dense.m_directed

    def test_factor_access(self, er_a, er_b):
        lazy = KroneckerGraph(er_a, er_b)
        assert lazy.factor_a == er_a.deduplicate()
        assert lazy.factor_b == er_b.deduplicate()


class TestStorageClaim:
    def test_sublinear_footprint(self):
        """Factor storage ~ sqrt of product size (the compression claim)."""
        a = erdos_renyi(40, 0.2, seed=5)
        lazy = KroneckerGraph(a, a)
        factor_rows = lazy.factor_a.m_directed + lazy.factor_b.m_directed
        assert factor_rows**2 >= lazy.m_directed
        assert factor_rows < lazy.m_directed / 10


def _sparse(n: int, m: int) -> EdgeList:
    """``m`` directed non-loop edges on ``n`` vertices: density m / n**2."""
    pairs = [(v, (v + 1) % n) for v in range(m)]
    return EdgeList.from_pairs(pairs, n=n)


# dense: n**2 / 8 <= 8 m (bitmap); sparse: density below 1/64 (sorted keys)
_DENSE = clique(4).with_full_self_loops()  # n = 4, m = 16
_DENSE_2 = cycle(5)  # n = 5, m = 10
_SPARSE = _sparse(9, 1)  # 81 > 64
_SPARSE_2 = _sparse(10, 1)  # 100 > 64


class TestMembership:
    @pytest.mark.parametrize(
        "a, b, bitmaps",
        [
            (_DENSE, _DENSE_2, (True, True)),
            (_DENSE, _SPARSE, (True, False)),
            (_SPARSE, _DENSE, (False, True)),
            (_SPARSE, _SPARSE_2, (False, False)),
        ],
        ids=["dense-dense", "dense-sparse", "sparse-dense", "sparse-sparse"],
    )
    def test_has_edges_is_has_edge_on_every_pair(self, a, b, bitmaps):
        lazy = KroneckerGraph(a, b)
        lazy.has_edges(np.array([0]), np.array([0]))
        assert (lazy._member_a.bits is not None,
                lazy._member_b.bits is not None) == bitmaps
        ids = np.arange(lazy.n)
        p, q = (x.ravel() for x in np.meshgrid(ids, ids))
        want = [lazy.has_edge(int(s), int(t)) for s, t in zip(p, q)]
        assert lazy.has_edges(p, q).tolist() == want
        assert sum(want) == lazy.m_directed
        # Out of range on either side: the batch and every scalar refuse.
        for bad in (-1, lazy.n, lazy.n + lazy.n_b, -lazy.n):
            for s, t in ((bad, 0), (0, bad), (bad, bad)):
                with pytest.raises(VertexRangeError):
                    lazy.has_edge(s, t)
                with pytest.raises(VertexRangeError):
                    lazy.has_edges(np.array([0, s]), np.array([0, t]))

    @pytest.mark.parametrize(
        "n, m", [(8, 0), (8, 1), (9, 1), (9, 2), (10, 1), (10, 2), (20, 6),
                 (20, 7), (1, 0), (1, 1), (0, 0)],
    )
    def test_bitmap_exactly_when_no_larger_than_the_keys(self, n, m):
        el = _sparse(n, m) if m < n or not m else EdgeList.from_pairs([(0, 0)], n=n)
        member = _FactorMembership(CSRGraph.from_edgelist(el))
        keys = 8 * el.m_directed
        assert (member.bits is not None) == (n * n / 8 <= keys)
        assert member.nbytes <= keys

    def test_out_of_range_ids_do_not_alias(self):
        # n = 4: q = 4 used to wrap into A's next row, -1 onto vertex 3.
        a = EdgeList.from_pairs([(0, 0), (1, 0), (0, 1)], n=2)
        b = EdgeList.from_pairs([(0, 0), (1, 1)], n=2)
        lazy = KroneckerGraph(a, b)
        assert not lazy.has_edges(np.array([0]), np.array([3]))[0]
        for call in (
            lambda: lazy.has_edges(np.array([0]), np.array([4])),
            lambda: lazy.has_edge(0, 4),
            lambda: lazy.degree(np.array([-1])),
            lambda: lazy.degree(4),
            lambda: lazy.neighbors(-1),
            lambda: lazy.neighbors(4),
        ):
            with pytest.raises(VertexRangeError, match=r"outside 0\.\.3"):
                call()
        assert lazy.degree(np.array([], dtype=np.int64)).shape == (0,)
        assert lazy.has_edges(np.array([], dtype=np.int64),
                              np.array([], dtype=np.int64)).shape == (0,)
