"""Unit tests for k-factor products (kronecker.power + groundtruth.power)."""

import numpy as np
import pytest

from repro.analytics import (
    closeness_centralities,
    degrees,
    eccentricities,
    edge_triangles_matrix,
    global_triangles,
    hop_matrix,
    vertex_triangles,
)
from repro.analytics.communities import community_stats
from repro.errors import GraphFormatError, VertexRangeError
from repro.graph import CSRGraph, EdgeList, clique, cycle, erdos_renyi, path
from repro.groundtruth.power import (
    closeness_many_histogram,
    community_stats_many,
    degrees_many_no_loops,
    diameter_many,
    eccentricity_many,
    edge_count_many_no_loops,
    edge_triangles_many_no_loops,
    global_triangles_many_no_loops,
    vertex_count_many,
    vertex_triangles_many_no_loops,
)
from repro.kronecker.power import (
    KroneckerPowerGraph,
    kron_product_many,
    multi_combine,
    multi_split,
)
from tests.conftest import random_connected_factor


@pytest.fixture
def three_factors():
    return [
        erdos_renyi(5, 0.6, seed=301),
        erdos_renyi(4, 0.7, seed=302),
        erdos_renyi(4, 0.6, seed=303),
    ]


class TestMultiIndex:
    def test_split_combine_roundtrip(self):
        sizes = [3, 5, 4]
        p = np.arange(60)
        coords = multi_split(p, sizes)
        assert np.array_equal(multi_combine(coords, sizes), p)

    def test_two_factor_matches_gamma(self):
        from repro.kronecker.indexing import split

        p = np.arange(35)
        c = multi_split(p, [5, 7])
        i, k = split(p, 7)
        assert np.array_equal(c[0], i)
        assert np.array_equal(c[1], k)

    def test_single_factor(self):
        p = np.arange(10)
        coords = multi_split(p, [10])
        assert len(coords) == 1
        assert np.array_equal(coords[0], p)

    def test_coords_in_range(self):
        sizes = [4, 3, 6]
        coords = multi_split(np.arange(72), sizes)
        for c, n in zip(coords, sizes):
            assert c.min() >= 0 and c.max() < n

    def test_combine_length_mismatch(self):
        with pytest.raises(GraphFormatError):
            multi_combine([np.array([0])], [3, 4])


class TestKronProductMany:
    def test_matches_iterated_dense(self, three_factors):
        c = kron_product_many(three_factors)
        dense = np.kron(
            np.kron(
                three_factors[0].to_scipy_sparse().toarray(),
                three_factors[1].to_scipy_sparse().toarray(),
            ),
            three_factors[2].to_scipy_sparse().toarray(),
        )
        assert np.array_equal(c.to_scipy_sparse().toarray(), dense)

    def test_single_factor_identity(self):
        a = cycle(4)
        assert kron_product_many([a]) == a

    def test_empty_list_rejected(self):
        with pytest.raises(GraphFormatError):
            kron_product_many([])


class TestLazyPowerGraph:
    def test_counts(self, three_factors):
        kg = KroneckerPowerGraph(three_factors)
        dense = kron_product_many(three_factors)
        assert kg.n == dense.n
        assert kg.m_directed == dense.m_directed
        assert kg.num_undirected_edges == dense.num_undirected_edges

    def test_has_edge_and_degree(self, three_factors):
        kg = KroneckerPowerGraph(three_factors)
        dense = kron_product_many(three_factors)
        csr = CSRGraph.from_edgelist(dense)
        rng = np.random.default_rng(0)
        for _ in range(100):
            p, q = rng.integers(0, dense.n, size=2)
            assert kg.has_edge(p, q) == csr.has_edge(p, q)
        assert np.array_equal(kg.degrees(), degrees(dense))
        ps = np.arange(dense.n)
        assert np.array_equal(kg.degree(ps), degrees(dense))

    @pytest.mark.parametrize("bad", [-1, 12])
    def test_out_of_range_ids_are_refused(self, bad):
        """``clique(3) (x) cycle(4)`` has n = 12: ``-1`` used to alias
        onto vertex 11 (degree 4) and ``12`` to raise a bare IndexError."""
        kg = KroneckerPowerGraph([clique(3), cycle(4)])
        assert kg.n == 12 and int(kg.degree(11)) == 4
        with pytest.raises(VertexRangeError, match="outside 0..11"):
            kg.degree(bad)
        with pytest.raises(VertexRangeError):
            kg.degree(np.array([0, bad]))
        with pytest.raises(VertexRangeError):
            kg.has_edge(bad, 0)
        with pytest.raises(VertexRangeError):
            kg.has_edge(0, bad)

    def test_self_loop_count(self):
        factors = [cycle(3).with_full_self_loops(), path(3).with_full_self_loops()]
        kg = KroneckerPowerGraph(factors)
        assert kg.num_self_loops == 9

    def test_iter_edges_total(self, three_factors):
        kg = KroneckerPowerGraph(three_factors)
        total = sum(len(b) for b in kg.iter_edges(chunk_size=64))
        assert total == kg.m_directed

    def test_to_edgelist(self, three_factors):
        kg = KroneckerPowerGraph(three_factors)
        assert kg.to_edgelist() == kron_product_many(three_factors)


class TestNoLoopLawsMany:
    def test_counting_laws(self, three_factors):
        c = kron_product_many(three_factors)
        assert vertex_count_many([f.n for f in three_factors]) == c.n
        assert edge_count_many_no_loops(
            [f.num_undirected_edges for f in three_factors]
        ) == c.num_undirected_edges

    def test_degree_law(self, three_factors):
        law = degrees_many_no_loops([degrees(f) for f in three_factors])
        assert np.array_equal(law, degrees(kron_product_many(three_factors)))

    def test_vertex_triangle_law(self, three_factors):
        law = vertex_triangles_many_no_loops(
            [vertex_triangles(f) for f in three_factors]
        )
        direct = vertex_triangles(kron_product_many(three_factors))
        assert np.array_equal(law, direct)

    def test_edge_triangle_law(self, three_factors):
        law = edge_triangles_many_no_loops(
            [edge_triangles_matrix(f) for f in three_factors]
        )
        direct = edge_triangles_matrix(kron_product_many(three_factors))
        assert (law - direct).nnz == 0

    def test_global_triangle_law(self, three_factors):
        law = global_triangles_many_no_loops(
            [global_triangles(f) for f in three_factors]
        )
        assert law == global_triangles(kron_product_many(three_factors))

    def test_two_factor_reduces_to_paper_forms(self):
        # 2^{k-1} = 2 and 6^{k-1} = 6 at k = 2: the paper's table rows
        assert edge_count_many_no_loops([3, 5]) == 2 * 3 * 5
        assert global_triangles_many_no_loops([2, 7]) == 6 * 2 * 7


class TestDistanceLawsMany:
    @pytest.fixture
    def loop_factors(self):
        return [
            random_connected_factor(5, seed=311).with_full_self_loops(),
            random_connected_factor(4, seed=312).with_full_self_loops(),
            random_connected_factor(4, seed=313).with_full_self_loops(),
        ]

    def test_eccentricity_many(self, loop_factors):
        c = kron_product_many(loop_factors)
        law = eccentricity_many([eccentricities(f) for f in loop_factors])
        assert np.array_equal(law, eccentricities(c))

    def test_diameter_many(self, loop_factors):
        c = kron_product_many(loop_factors)
        law = diameter_many(
            [int(eccentricities(f).max()) for f in loop_factors]
        )
        assert law == int(eccentricities(c).max())

    def test_closeness_many(self, loop_factors):
        c = kron_product_many(loop_factors)
        hops = [hop_matrix(f) for f in loop_factors]
        direct = closeness_centralities(c)
        sizes = [f.n for f in loop_factors]
        for p in [0, 7, c.n // 2, c.n - 1]:
            coords = multi_split(p, sizes)
            rows = [h[int(ci)] for h, ci in zip(hops, coords)]
            assert closeness_many_histogram(rows) == pytest.approx(direct[p])

    def test_closeness_two_factor_consistency(self, loop_factors):
        from repro.groundtruth.closeness import closeness_product_histogram

        a, b = loop_factors[:2]
        h_a, h_b = hop_matrix(a), hop_matrix(b)
        assert closeness_many_histogram([h_a[0], h_b[0]]) == pytest.approx(
            closeness_product_histogram(h_a[0], h_b[0])
        )


class TestCommunityLawsMany:
    def test_thm6_folds(self, three_factors):
        from repro.groundtruth.community import kron_vertex_set
        from repro.kronecker.operators import kron_with_full_loops

        # product with loops of three factors: fold pairwise
        a, b, d = three_factors
        c = kron_with_full_loops(kron_with_full_loops(a, b).without_self_loops(), d)
        sets = [np.arange(3), np.arange(2), np.arange(3)]
        stats = [
            community_stats(f, s) for f, s in zip(three_factors, sets)
        ]
        law = community_stats_many(stats)
        ids_ab = kron_vertex_set(sets[0], sets[1], b.n)
        ids = kron_vertex_set(ids_ab, sets[2], d.n)
        direct = community_stats(c, ids)
        assert (law.m_in, law.m_out) == (direct.m_in, direct.m_out)
