"""Batched multi-source BFS vs the single-source kernel (bit-identical)."""

import numpy as np
import pytest

from repro.analytics.bfs import (
    UNREACHABLE,
    bfs_hops,
    bfs_hops_multi,
    bfs_levels,
    bfs_levels_multi,
)
from repro.analytics.distances import (
    closeness_centralities,
    closeness_from_hops,
    eccentricities,
    hop_matrix,
)
from repro.errors import AssumptionError
from repro.graph import CSRGraph, EdgeList, cycle, erdos_renyi, gnutella_like


@pytest.fixture(scope="module")
def factor():
    return gnutella_like(n=80)


@pytest.fixture(scope="module")
def csr(factor):
    return CSRGraph.from_edgelist(factor)


class TestBfsLevelsMulti:
    @pytest.mark.parametrize("batch", [1, 3, 64, 1024])
    def test_matches_single_source(self, csr, batch):
        multi = bfs_levels_multi(csr, batch=batch)
        for v in range(csr.n):
            assert np.array_equal(multi[v], bfs_levels(csr, v)), v

    def test_subset_of_sources(self, csr):
        sources = np.array([5, 0, 17, 5], dtype=np.int64)
        multi = bfs_levels_multi(csr, sources)
        for row, v in zip(multi, sources):
            assert np.array_equal(row, bfs_levels(csr, int(v)))

    def test_disconnected_marks_unreachable(self):
        el = EdgeList(
            np.array([[0, 1], [1, 0], [2, 3], [3, 2]], dtype=np.int64), 5
        )
        g = CSRGraph.from_edgelist(el)
        multi = bfs_levels_multi(g)
        for v in range(5):
            assert np.array_equal(multi[v], bfs_levels(g, v))
        assert multi[0, 2] == UNREACHABLE
        assert multi[4, 0] == UNREACHABLE

    def test_directed_graph(self):
        # a directed path: reachability is one-way
        el = EdgeList(np.array([[0, 1], [1, 2]], dtype=np.int64), 3)
        g = CSRGraph.from_edgelist(el)
        multi = bfs_levels_multi(g)
        for v in range(3):
            assert np.array_equal(multi[v], bfs_levels(g, v))
        assert np.array_equal(multi[0], [0, 1, 2])
        assert np.array_equal(multi[2], [UNREACHABLE, UNREACHABLE, 0])

    def test_out_of_range_source(self, csr):
        with pytest.raises(IndexError):
            bfs_levels_multi(csr, np.array([csr.n]))

    def test_empty_sources(self, csr):
        out = bfs_levels_multi(csr, np.empty(0, dtype=np.int64))
        assert out.shape == (0, csr.n)


class TestBfsHopsMulti:
    def test_selfloop_convention(self, csr):
        multi = bfs_hops_multi(csr, selfloop_convention=True)
        for v in range(csr.n):
            assert np.array_equal(
                multi[v], bfs_hops(csr, v, selfloop_convention=True)
            ), v


def _hops_per_vertex(g, convention=True):
    """Reference hop matrix: one single-source ``bfs_hops`` per vertex."""
    csr = g if isinstance(g, CSRGraph) else CSRGraph.from_edgelist(g)
    out = np.empty((csr.n, csr.n), dtype=np.int64)
    for v in range(csr.n):
        out[v] = bfs_hops(csr, v, selfloop_convention=convention)
    return out


class TestAllPairsDriversBatchedVsLoop:
    """The batched all-pairs drivers against a per-vertex reference loop
    built here from the single-source kernel."""

    @pytest.mark.parametrize("convention", [True, False])
    def test_hop_matrix_bit_identical(self, factor, convention):
        batched = hop_matrix(factor, selfloop_convention=convention)
        loop = _hops_per_vertex(factor, convention)
        assert batched.dtype == loop.dtype
        assert np.array_equal(batched, loop)

    def test_eccentricities_bit_identical(self, factor):
        assert np.array_equal(
            eccentricities(factor), _hops_per_vertex(factor).max(axis=1)
        )

    def test_eccentricities_disconnected_raises(self):
        el = EdgeList(
            np.array([[0, 1], [1, 0], [2, 3], [3, 2]], dtype=np.int64), 4
        )
        assert np.any(_hops_per_vertex(el) == UNREACHABLE)
        with pytest.raises(AssumptionError):
            eccentricities(el)

    def test_closeness_matches(self, factor):
        batched = closeness_centralities(factor)
        loop = [closeness_from_hops(row) for row in _hops_per_vertex(factor)]
        np.testing.assert_allclose(batched, loop, rtol=1e-12)

    def test_small_cycle_all_methods(self):
        c = cycle(6)
        assert np.array_equal(hop_matrix(c), _hops_per_vertex(c))

    def test_random_graph_with_loops(self):
        el = erdos_renyi(30, 0.15, seed=42).with_full_self_loops()
        assert np.array_equal(hop_matrix(el), _hops_per_vertex(el))
