"""Unit tests for the stochastic tier's core: seeds, model, sample,
noisy correction, and closed-form expectations.

The load-bearing contracts:

* probability math matches the dense ``np.kron`` reference, and the
  popcount fast path is interchangeable with the per-level loop;
* sampling is a pure function of the spec -- invariant to chunking,
  symmetric for undirected specs, and degenerate (exact) for binary
  seed matrices;
* the noisy correction preserves the matrix sum exactly and stays a
  deterministic function of ``(noise_seed, level)``;
* closed-form expectations agree with dense enumeration at small ``k``.
"""

import numpy as np
import pytest

import repro.skg.model as skg_model
from repro.errors import GraphFormatError
from repro.skg.expected import (
    compute_expected_property,
    degree_profile,
    expected_degree_histogram,
    expected_degrees,
    expected_edge_rows,
    expected_isolated_count,
    expected_property_names,
    expected_triangles,
    expected_undirected_edges,
)
from repro.skg.model import (
    SKGSpec,
    edge_probabilities,
    level_bits,
    probability_matrix,
)
from repro.skg.noisy import max_noise, noise_values, noisy_level_matrices
from repro.skg.sample import SKGAcceptor, skg_accept_mask, skg_sample_edges
from repro.skg.seeds import (
    SEED_LIBRARY,
    fitted_k,
    get_seed_matrix,
    list_seed_matrices,
    validate_theta,
)

THETA = (0.9, 0.5, 0.5, 0.3)


def spec(k=4, **kw):
    kw.setdefault("name", "custom")
    kw.setdefault("theta", THETA)
    return SKGSpec(k=k, **kw)


class TestSeeds:
    def test_library_entries_are_valid(self):
        assert len(SEED_LIBRARY) >= 6
        for sm in list_seed_matrices():
            t = np.asarray(sm.theta).reshape(2, 2)
            validate_theta(t)
            assert t[0, 1] == t[1, 0], "library matrices are symmetrized"
            assert sm.k == fitted_k(sm.source_n)
            assert sm.source_m > 0

    def test_listing_is_sorted_and_deterministic(self):
        names = [sm.name for sm in list_seed_matrices()]
        assert names == sorted(names)
        assert names == [sm.name for sm in list_seed_matrices()]

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(GraphFormatError, match="polblogs"):
            get_seed_matrix("nope")

    def test_fitted_k_is_ceil_log2(self):
        assert fitted_k(1024) == 10
        assert fitted_k(1025) == 11
        assert fitted_k(2) == 1

    def test_validate_theta_rejects_out_of_range(self):
        with pytest.raises(GraphFormatError):
            validate_theta(np.array([[1.5, 0.5], [0.5, 0.3]]))
        with pytest.raises(GraphFormatError):
            validate_theta(np.array([[0.9, -0.1], [0.5, 0.3]]))
        with pytest.raises(GraphFormatError):
            validate_theta(np.array([0.9, 0.5, 0.5]))

    def test_expected_directed_pairs(self):
        sm = get_seed_matrix("polblogs")
        assert sm.expected_directed_pairs(k=1) == pytest.approx(
            float(np.sum(sm.theta))
        )


class TestModel:
    def test_level_bits_msb_first(self):
        bits = level_bits(np.array([0b1011], dtype=np.int64), 4)
        assert bits[:, 0].tolist() == [1, 0, 1, 1]
        assert bits.dtype == np.int64

    def test_edge_probabilities_match_dense_kron(self):
        s = spec(k=4, directed=True, self_loops=True)
        dense = probability_matrix(s.level_matrices())
        n = s.n
        flat = np.arange(n * n, dtype=np.int64)
        u, v = flat // n, flat % n
        got = s.edge_probabilities(u, v)
        np.testing.assert_allclose(got, dense[u, v], rtol=1e-12)

    def test_noisy_probabilities_match_dense_kron(self):
        s = spec(k=5, noise_b=0.2, directed=True, self_loops=True)
        dense = probability_matrix(s.level_matrices())
        n = s.n
        flat = np.arange(n * n, dtype=np.int64)
        u, v = flat // n, flat % n
        np.testing.assert_allclose(
            s.edge_probabilities(u, v), dense[u, v], rtol=1e-12
        )

    def test_fast_path_matches_level_loop(self, monkeypatch):
        if not skg_model._HAS_BITWISE_COUNT:
            pytest.skip("numpy without bitwise_count: no fast path")
        thetas = np.broadcast_to(
            np.asarray(THETA).reshape(2, 2), (10, 2, 2)
        ).astype(np.float64)
        rng = np.random.default_rng(7)
        u = rng.integers(0, 1 << 10, size=4096).astype(np.int64)
        v = rng.integers(0, 1 << 10, size=4096).astype(np.int64)
        fast = edge_probabilities(thetas, u, v)
        monkeypatch.setattr(skg_model, "_HAS_BITWISE_COUNT", False)
        loop = edge_probabilities(thetas, u, v)
        np.testing.assert_allclose(fast, loop, rtol=1e-14)

    def test_fast_path_exact_for_zero_entries(self):
        # 0**0 == 1 must hold so a zero theta entry only kills pairs
        # that actually use it.
        thetas = np.broadcast_to(
            np.array([[1.0, 0.0], [0.0, 1.0]]), (3, 2, 2)
        ).astype(np.float64)
        u = np.array([0, 5, 7], dtype=np.int64)
        v = np.array([0, 5, 6], dtype=np.int64)
        np.testing.assert_array_equal(
            edge_probabilities(thetas, u, v), [1.0, 1.0, 0.0]
        )

    def test_probability_matrix_guards_large_k(self):
        with pytest.raises(GraphFormatError, match="small k"):
            probability_matrix(np.zeros((17, 2, 2)))

    def test_spec_validation(self):
        with pytest.raises(GraphFormatError, match="4 entries"):
            spec(theta=(0.5, 0.5, 0.5))
        with pytest.raises(GraphFormatError, match="exponent"):
            spec(k=0)
        with pytest.raises(GraphFormatError, match="exponent"):
            spec(k=63)
        with pytest.raises(GraphFormatError, match="noise"):
            spec(noise_b=-0.1)

    def test_undirected_spec_symmetrizes_theta(self):
        s = spec(theta=(0.9, 0.6, 0.4, 0.3), directed=False)
        assert s.theta[1] == s.theta[2] == pytest.approx(0.5)
        d = spec(theta=(0.9, 0.6, 0.4, 0.3), directed=True)
        assert d.theta == (0.9, 0.6, 0.4, 0.3)

    def test_digest_separates_every_field(self):
        base = spec()
        variants = [
            spec(k=5),
            spec(skg_seed=1),
            spec(noise_b=0.1),
            spec(noise_b=0.1, noise_seed=1),
            spec(directed=True),
            spec(self_loops=True),
            spec(name="other"),
        ]
        digests = {base.digest(), *(v.digest() for v in variants)}
        assert len(digests) == 1 + len(variants)

    def test_digest_is_a_pure_value(self):
        assert spec().digest() == spec().digest()
        assert SKGSpec.from_library("polblogs").digest() == \
            SKGSpec.from_library("polblogs").digest()


class TestSample:
    def test_accept_all_yields_every_pair(self):
        s = spec(theta=(1.0, 1.0, 1.0, 1.0), k=3,
                 directed=True, self_loops=True)
        el = skg_sample_edges(s)
        assert el.m_directed == s.n * s.n

    def test_self_loops_excluded_by_default(self):
        s = spec(theta=(1.0, 1.0, 1.0, 1.0), k=3, directed=True)
        el = skg_sample_edges(s)
        assert el.m_directed == s.n * s.n - s.n
        assert np.all(el.edges[:, 0] != el.edges[:, 1])

    def test_undirected_output_is_symmetric(self):
        s = spec(k=5)
        el = skg_sample_edges(s)
        fwd = set(map(tuple, el.edges.tolist()))
        assert fwd == {(v, u) for u, v in fwd}
        assert el.m_directed > 0

    def test_chunk_size_invariance(self):
        s = spec(k=5, skg_seed=3)
        ref = skg_sample_edges(s)
        for chunk in (1, 7, 64, 1 << 18):
            got = skg_sample_edges(s, chunk_size=chunk)
            np.testing.assert_array_equal(got.edges, ref.edges)

    def test_sample_independent_of_draw_budget(self, monkeypatch):
        """A skip stream that runs out of draws continues where it
        stopped: one draw per pass gives the same sample."""
        import repro.skg.sample as skg_sample

        s = spec(k=7, skg_seed=11)
        sampler = skg_sample.SKGSampler(s)
        ref = sampler.sample(0, sampler.items)
        monkeypatch.setattr(
            skg_sample, "_budget", lambda mean, cap: np.ones(len(cap), np.int64)
        )
        np.testing.assert_array_equal(sampler.sample(0, sampler.items), ref)

    def test_mask_pure_function_of_pair(self):
        s = spec(k=6, skg_seed=9)
        rng = np.random.default_rng(1)
        u = rng.integers(0, s.n, size=500).astype(np.int64)
        v = rng.integers(0, s.n, size=500).astype(np.int64)
        whole = skg_accept_mask(s, u, v)
        perm = rng.permutation(500)
        np.testing.assert_array_equal(
            skg_accept_mask(s, u[perm], v[perm]), whole[perm]
        )

    def test_acceptor_counters(self):
        s = spec(k=4, directed=True, self_loops=True)
        acc = SKGAcceptor(s)
        n = s.n
        flat = np.arange(n * n, dtype=np.int64)
        kept = acc.filter_edges(
            np.column_stack([flat // n, flat % n])
        )
        assert acc.accepted == len(kept)
        assert acc.accepted + acc.rejected == n * n

    def test_binary_theta_collapses_to_exact_support(self):
        s = spec(theta=(1.0, 0.0, 0.0, 1.0), k=5,
                 directed=True, self_loops=True)
        el = skg_sample_edges(s)
        dense = probability_matrix(s.level_matrices())
        support = np.argwhere(dense > 0.0).astype(np.int64)
        np.testing.assert_array_equal(el.edges, support)

    def test_empty_block_passthrough(self):
        acc = SKGAcceptor(spec())
        out = acc.filter_edges(np.empty((0, 2), dtype=np.int64))
        assert len(out) == 0 and acc.accepted == acc.rejected == 0


class TestNoisy:
    def test_sum_preserved_exactly(self):
        theta = np.asarray(THETA).reshape(2, 2)
        mats = noisy_level_matrices(theta, 8, 0.2, noise_seed=5)
        np.testing.assert_allclose(
            mats.sum(axis=(1, 2)), theta.sum(), rtol=1e-12
        )

    def test_noise_values_deterministic_and_bounded(self):
        a = noise_values(12, 0.3, noise_seed=4)
        b = noise_values(12, 0.3, noise_seed=4)
        np.testing.assert_array_equal(a, b)
        assert np.all(np.abs(a) <= 0.3)
        assert len(np.unique(a)) == 12, "levels draw distinct noise"
        assert not np.array_equal(a, noise_values(12, 0.3, noise_seed=5))

    def test_amplitude_cap_enforced(self):
        theta = np.asarray(THETA).reshape(2, 2)
        limit = max_noise(theta)
        assert limit == pytest.approx(0.5)  # min(t2, t3, (t1+t4)/2)
        noisy_level_matrices(theta, 4, limit, noise_seed=0)  # at the cap: ok
        with pytest.raises(GraphFormatError, match="max_noise"):
            noisy_level_matrices(theta, 4, limit + 0.01, noise_seed=0)
        with pytest.raises(GraphFormatError, match=">= 0"):
            noisy_level_matrices(theta, 4, -0.1, noise_seed=0)

    def test_zero_amplitude_is_plain(self):
        s0 = spec(noise_b=0.0)
        np.testing.assert_array_equal(
            s0.level_matrices(),
            np.broadcast_to(s0.matrix(), (s0.k, 2, 2)),
        )


class TestExpected:
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("self_loops", [False, True])
    def test_edge_rows_match_dense_sum(self, directed, self_loops):
        s = spec(k=4, directed=directed, self_loops=self_loops)
        dense = probability_matrix(s.level_matrices())
        want = dense.sum() if self_loops else dense.sum() - np.trace(dense)
        assert expected_edge_rows(s) == pytest.approx(want)
        if not directed:
            assert expected_undirected_edges(s) == pytest.approx(
                (dense.sum() - np.trace(dense)) / 2.0
            )

    def test_expected_degrees_match_dense_rows(self):
        s = spec(k=5, directed=True, self_loops=True)
        dense = probability_matrix(s.level_matrices())
        np.testing.assert_allclose(
            expected_degrees(s), dense.sum(axis=1), rtol=1e-12
        )

    def test_degree_profile_partitions_vertices(self):
        s = spec(k=6)
        lams, counts = degree_profile(s)
        assert int(counts.sum()) == s.n
        assert np.all(np.diff(lams) < 0), "classes ordered by falling lam"

    def test_histogram_mass_and_mean(self):
        s = spec(k=6)
        hist = expected_degree_histogram(s)
        assert hist.sum() == pytest.approx(s.n, rel=1e-6)
        mean_deg = float(np.arange(len(hist)) @ hist) / s.n
        assert mean_deg == pytest.approx(
            expected_edge_rows(s) / s.n, rel=1e-3
        )

    def test_isolated_methods_agree(self):
        s = spec(k=6)
        poisson = expected_isolated_count(s)
        exact = expected_isolated_count(s, method="exact")
        assert poisson == pytest.approx(exact, rel=0.05)
        assert 0.0 <= exact <= s.n

    def test_triangles_positive_and_scaling(self):
        small, large = spec(k=4), spec(k=6)
        assert 0.0 < expected_triangles(small) < expected_triangles(large)

    def test_property_registry(self):
        names = expected_property_names()
        assert names == sorted(names)
        assert {"edge_count", "degree_histogram", "isolated_vertices",
                "triangles", "summary"} <= set(names)
        s = spec(k=4)
        doc = compute_expected_property("edge_count", s)
        assert doc["expected_edge_rows"] == pytest.approx(
            expected_edge_rows(s)
        )
        with pytest.raises(GraphFormatError, match="unknown"):
            compute_expected_property("nope", s)
