"""Unit tests for betweenness (Brandes) and approximation algorithms."""

import numpy as np
import networkx as nx
import pytest

from repro.analytics.approx import (
    approx_closeness_sampling,
    approx_eccentricities_pivot,
    two_sweep_diameter_bound,
)
from repro.analytics.betweenness import betweenness_centrality
from repro.analytics import closeness_centralities, diameter, eccentricities
from repro.errors import AssumptionError
from repro.graph import clique, cycle, disjoint_cliques, path, star
from tests.conftest import random_connected_factor


class TestBetweenness:
    def test_path_center(self):
        bc = betweenness_centrality(path(5))
        # middle of P5 lies on 2*3 ordered pairs / 2 = 4 unordered paths
        assert bc[2] == pytest.approx(4.0)
        assert bc[0] == bc[4] == 0.0

    def test_star_hub(self):
        bc = betweenness_centrality(star(6))
        # hub lies on all C(5,2) = 10 leaf pairs
        assert bc[0] == pytest.approx(10.0)
        assert np.allclose(bc[1:], 0.0)

    def test_clique_zero(self):
        assert np.allclose(betweenness_centrality(clique(5)), 0.0)

    def test_matches_networkx_exact(self):
        for seed in (801, 802):
            g = random_connected_factor(25, seed=seed)
            mine = betweenness_centrality(g)
            theirs = nx.betweenness_centrality(g.to_networkx(), normalized=False)
            assert np.allclose(mine, [theirs[v] for v in range(g.n)])

    def test_normalized_matches_networkx(self):
        g = random_connected_factor(20, seed=803)
        mine = betweenness_centrality(g, normalized=True)
        theirs = nx.betweenness_centrality(g.to_networkx(), normalized=True)
        assert np.allclose(mine, [theirs[v] for v in range(g.n)])

    def test_self_loops_ignored(self):
        a = path(5)
        b = path(5).with_full_self_loops()
        assert np.allclose(
            betweenness_centrality(a), betweenness_centrality(b)
        )

    def test_sampled_estimator_unbiased_direction(self):
        g = random_connected_factor(30, seed=804)
        exact = betweenness_centrality(g)
        est = betweenness_centrality(g, sources=np.arange(g.n))  # full sample
        assert np.allclose(est, exact)

    def test_sampled_estimator_close(self):
        g = random_connected_factor(40, seed=805)
        exact = betweenness_centrality(g)
        rng = np.random.default_rng(0)
        est = betweenness_centrality(
            g, sources=rng.choice(g.n, size=20, replace=False)
        )
        # crude estimator: check the top vertex is ranked near the top
        top = np.argmax(exact)
        assert est[top] >= np.percentile(est, 75)


class TestApproxCloseness:
    def test_full_sample_is_exact(self):
        g = random_connected_factor(20, seed=811).with_full_self_loops()
        approx = approx_closeness_sampling(g, num_samples=g.n, seed=1)
        exact = closeness_centralities(g)
        assert np.allclose(approx, exact)

    def test_partial_sample_near_exact(self):
        g = random_connected_factor(60, seed=812).with_full_self_loops()
        exact = closeness_centralities(g)
        approx = approx_closeness_sampling(g, num_samples=30, seed=2)
        rel = np.abs(approx - exact) / exact
        assert np.median(rel) < 0.2

    def test_bad_samples(self):
        g = clique(4)
        with pytest.raises(AssumptionError):
            approx_closeness_sampling(g, num_samples=0)


class TestTwoSweep:
    def test_exact_on_path(self):
        lb, _far = two_sweep_diameter_bound(path(9), start=4)
        assert lb == 8

    def test_lower_bound_property(self):
        for seed in (821, 822, 823):
            g = random_connected_factor(40, seed=seed)
            lb, _ = two_sweep_diameter_bound(g)
            assert lb <= diameter(g)
            assert lb >= diameter(g) - 1  # empirically tight on these graphs

    def test_disconnected_rejected(self):
        with pytest.raises(AssumptionError):
            two_sweep_diameter_bound(disjoint_cliques(2, 3))


class TestApproxEccentricity:
    def test_upper_bound_property(self):
        g = random_connected_factor(50, seed=831)
        upper = approx_eccentricities_pivot(g, num_pivots=4, seed=3)
        exact = eccentricities(g, selfloop_convention=False)
        assert np.all(upper >= exact)

    def test_tightens_with_pivots(self):
        g = random_connected_factor(50, seed=832)
        loose = approx_eccentricities_pivot(g, num_pivots=1, seed=4)
        tight = approx_eccentricities_pivot(g, num_pivots=8, seed=4)
        assert tight.sum() <= loose.sum()

    def test_many_pivots_nearly_exact(self):
        g = random_connected_factor(40, seed=833)
        upper = approx_eccentricities_pivot(g, num_pivots=20, seed=5)
        exact = eccentricities(g, selfloop_convention=False)
        assert np.mean(upper - exact) <= 0.5


class TestGroundTruthScoring:
    """The paper's use case: score approximations against Kronecker truth."""

    def test_approx_eccentricity_on_product_scored_by_cor4(self):
        from repro.groundtruth import eccentricity_product_all
        from repro.kronecker import kron_product

        a = random_connected_factor(8, seed=841).with_full_self_loops()
        b = random_connected_factor(7, seed=842).with_full_self_loops()
        c = kron_product(a, b)
        truth = eccentricity_product_all(eccentricities(a), eccentricities(b))
        estimate = approx_eccentricities_pivot(c, num_pivots=6, seed=6)
        # upper-bound estimator scored against exact formula ground truth
        assert np.all(estimate >= truth)
        assert np.mean(estimate - truth) < 1.0

    def test_sampled_closeness_on_product_scored_by_thm4(self):
        from repro.analytics import hop_matrix
        from repro.groundtruth import closeness_product_histogram
        from repro.kronecker import kron_product

        a = random_connected_factor(20, seed=843).with_full_self_loops()
        c = kron_product(a, a)
        h_a = hop_matrix(a)
        estimate = approx_closeness_sampling(c, num_samples=64, seed=2)
        picks = np.random.default_rng(3).choice(c.n, size=10, replace=False)
        errs = []
        for p in picks:
            i, k = divmod(int(p), a.n)
            truth = closeness_product_histogram(h_a[i], h_a[k])
            errs.append(abs(estimate[p] - truth) / truth)
        assert np.median(errs) < 0.2
