"""Unit tests for repro.kronecker.rejection (Def. 8)."""

import numpy as np
import pytest

from repro.analytics import global_triangles, vertex_triangles
from repro.graph import clique, erdos_renyi
from repro.kronecker import (
    KroneckerGraph,
    RejectionFamily,
    expected_edge_triangles,
    expected_vertex_triangles,
    kron_product,
)
from repro.util.hashing import edge_uniform


@pytest.fixture
def product():
    a = erdos_renyi(12, 0.35, seed=41)
    b = erdos_renyi(12, 0.35, seed=42)
    return kron_product(a, b)


class TestSubgraph:
    def test_nu_one_keeps_everything(self, product):
        fam = RejectionFamily(product, seed=1)
        assert fam.subgraph(1.0) == product

    def test_nu_zero_keeps_nothing(self, product):
        fam = RejectionFamily(product, seed=1)
        assert fam.subgraph(0.0).m_directed == 0

    def test_deterministic(self, product):
        a = RejectionFamily(product, seed=9).subgraph(0.8)
        b = RejectionFamily(product, seed=9).subgraph(0.8)
        assert a == b

    def test_seed_sensitivity(self, product):
        a = RejectionFamily(product, seed=1).subgraph(0.8)
        b = RejectionFamily(product, seed=2).subgraph(0.8)
        assert a != b

    def test_symmetric_subgraph_of_symmetric_graph(self, product):
        sub = RejectionFamily(product, seed=3).subgraph(0.7)
        assert sub.is_symmetric()

    def test_survival_fraction_near_nu(self, product):
        fam = RejectionFamily(product, seed=4)
        for nu in (0.9, 0.5):
            sub = fam.subgraph(nu)
            frac = sub.m_directed / product.m_directed
            assert abs(frac - nu) < 0.06

    def test_bad_nu(self, product):
        with pytest.raises(ValueError):
            RejectionFamily(product).subgraph(1.5)


class TestFamily:
    def test_nesting(self, product):
        fam = RejectionFamily(product, seed=5)
        subs = fam.subgraph_family([0.9, 0.95, 0.99, 1.0])
        lo = {tuple(e) for e in subs[0.9].edges}
        mid = {tuple(e) for e in subs[0.95].edges}
        hi = {tuple(e) for e in subs[1.0].edges}
        assert lo <= mid <= hi

    def test_family_matches_individual(self, product):
        fam = RejectionFamily(product, seed=6)
        subs = fam.subgraph_family([0.8, 0.95])
        assert subs[0.8] == fam.subgraph(0.8)
        assert subs[0.95] == fam.subgraph(0.95)

    def test_empty_family(self, product):
        assert RejectionFamily(product).subgraph_family([]) == {}

    def test_lazy_graph_input(self):
        a = erdos_renyi(10, 0.4, seed=7)
        lazy = KroneckerGraph(a, a)
        dense = kron_product(a, a)
        sub_lazy = RejectionFamily(lazy, seed=8).subgraph(0.9)
        sub_dense = RejectionFamily(dense, seed=8).subgraph(0.9)
        assert sub_lazy == sub_dense


class TestTriangleStatistics:
    def test_expected_helpers(self):
        t = np.array([10, 20])
        assert np.allclose(expected_vertex_triangles(t, 0.5), 0.125 * t)
        assert np.allclose(expected_edge_triangles(t, 0.5), 0.25 * t)

    def test_vertex_triangle_expectation_over_seeds(self):
        graph = clique(12)  # triangle-dense, tight statistics
        t_full = vertex_triangles(graph)
        nu = 0.9
        acc = np.zeros(graph.n)
        n_seeds = 60
        for s in range(n_seeds):
            sub = RejectionFamily(graph, seed=100 + s).subgraph(nu)
            acc += vertex_triangles(sub)
        mean = acc / n_seeds
        expect = expected_vertex_triangles(t_full, nu)
        # total-count relative error shrinks ~1/sqrt(seeds * tau)
        assert abs(mean.sum() - expect.sum()) / expect.sum() < 0.05

    def test_triangle_survival_threshold_consistency(self, product):
        fam = RejectionFamily(product, seed=11)
        # brute force: a triangle survives at nu iff its max edge hash <= nu
        p1 = np.array([0, 1])
        p2 = np.array([2, 3])
        p3 = np.array([4, 5])
        thr = fam.triangle_survival_threshold(p1, p2, p3)
        h12 = edge_uniform(p1, p2, 11)
        h13 = edge_uniform(p1, p3, 11)
        h23 = edge_uniform(p2, p3, 11)
        assert np.array_equal(thr, np.max([h12, h13, h23], axis=0))

    def test_triangles_of_subgraph_survive_rule(self):
        graph = clique(8)
        nu = 0.85
        fam = RejectionFamily(graph, seed=12)
        sub = fam.subgraph(nu)
        # every triangle of the subgraph must have survival threshold <= nu
        tri = []
        edges = {tuple(e) for e in sub.edges}
        n = graph.n
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    if (i, j) in edges and (i, k) in edges and (j, k) in edges:
                        tri.append((i, j, k))
        if tri:
            tri = np.array(tri)
            thr = fam.triangle_survival_threshold(tri[:, 0], tri[:, 1], tri[:, 2])
            assert np.all(thr <= nu)
