"""Property tests for the stochastic tier.

Three families:

* **Purity**: the acceptance decision is a function of ``(pair, spec)``
  alone, so any block decomposition, order, or duplication of the
  candidate stream yields the same verdicts, and the distributed
  generator agrees with the serial oracle for arbitrary specs.
* **Concentration**: realized statistics of sampled instances land
  within a few standard deviations of the closed-form expectations in
  :mod:`repro.skg.expected` -- edge count per-spec (Hypothesis over
  theta/k/seed) and the full degree histogram for the fitted polblogs
  matrix (total-variation distance).
* **Smoothing**: the noisy-SKG correction reduces the expected degree
  histogram's oscillation (Seshadhri-Pinar-Kolda), measured on
  ``polblogs`` at ``k = 10`` as the summed positive increments of the
  histogram tail.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.supervisor import canonical_edges
from repro.skg.distributed import generate_skg_distributed
from repro.skg.expected import (
    expected_degree_histogram,
    expected_edge_rows,
)
from repro.skg.model import SKGSpec, probability_matrix
from repro.skg.sample import skg_accept_mask, skg_sample_edges


@st.composite
def skg_specs(draw, max_k=6):
    """Arbitrary valid specs over modest exponents."""
    theta = tuple(
        draw(st.floats(min_value=0.05, max_value=1.0)) for _ in range(4)
    )
    return SKGSpec(
        name="custom",
        theta=theta,
        k=draw(st.integers(min_value=2, max_value=max_k)),
        skg_seed=draw(st.integers(min_value=0, max_value=2**32)),
        directed=draw(st.booleans()),
        self_loops=draw(st.booleans()),
    )


class TestPurity:
    @given(spec=skg_specs(), block=st.integers(min_value=1, max_value=97))
    @settings(max_examples=40, deadline=None)
    def test_mask_invariant_to_blocking(self, spec, block):
        n = spec.n
        flat = np.arange(n * n, dtype=np.int64)
        u, v = flat // n, flat % n
        whole = skg_accept_mask(spec, u, v)
        pieces = [
            skg_accept_mask(spec, u[i:i + block], v[i:i + block])
            for i in range(0, n * n, block)
        ]
        np.testing.assert_array_equal(np.concatenate(pieces), whole)

    @given(spec=skg_specs())
    @settings(max_examples=25, deadline=None)
    def test_revisits_reach_identical_verdicts(self, spec):
        # A retry that re-enumerates pairs (possibly duplicated and
        # reordered) must reproduce the verdicts exactly.
        rng = np.random.default_rng(spec.skg_seed & 0xFFFF)
        u = rng.integers(0, spec.n, size=256).astype(np.int64)
        v = rng.integers(0, spec.n, size=256).astype(np.int64)
        first = skg_accept_mask(spec, u, v)
        idx = rng.integers(0, 256, size=512)
        np.testing.assert_array_equal(
            skg_accept_mask(spec, u[idx], v[idx]), first[idx]
        )

    @given(spec=skg_specs(max_k=5), ranks=st.integers(min_value=1, max_value=4))
    @settings(max_examples=12, deadline=None)
    def test_distributed_matches_serial_oracle(self, spec, ranks):
        oracle = canonical_edges(skg_sample_edges(spec).edges)
        el, _ = generate_skg_distributed(spec, ranks)
        np.testing.assert_array_equal(canonical_edges(el.edges), oracle)


class TestConcentration:
    @given(spec=skg_specs())
    @settings(max_examples=30, deadline=None)
    def test_edge_rows_concentrate_around_expectation(self, spec):
        rows = skg_sample_edges(spec).m_directed
        expect = expected_edge_rows(spec)
        dense = probability_matrix(spec.level_matrices())
        if not spec.self_loops:
            np.fill_diagonal(dense, 0.0)
        p = np.clip(dense, 0.0, 1.0)
        var = float(np.sum(p * (1.0 - p)))
        if not spec.directed:
            # Both directions of a pair share one verdict: rows move in
            # steps of 2, doubling the per-pair contribution's scale.
            var *= 2.0
        assert abs(rows - expect) <= 6.0 * np.sqrt(var) + 2.0

    def test_polblogs_degree_histogram_tv_distance(self):
        spec = SKGSpec.from_library("polblogs", k=8)
        hist = expected_degree_histogram(spec)
        tvs = []
        for seed in range(3):
            s = SKGSpec.from_library("polblogs", k=8, skg_seed=seed)
            el = skg_sample_edges(s)
            deg = np.bincount(el.edges[:, 0], minlength=s.n)
            emp = np.bincount(deg, minlength=len(hist)).astype(np.float64)
            width = max(len(emp), len(hist))
            emp = np.pad(emp, (0, width - len(emp)))
            exp = np.pad(hist, (0, width - len(hist)))
            tvs.append(0.5 * float(np.sum(np.abs(emp - exp))) / s.n)
        assert np.mean(tvs) < 0.15, tvs


class TestNoisySmoothing:
    @staticmethod
    def oscillation(hist):
        """Summed positive increments of the tail: 0 if monotone."""
        steps = np.diff(hist[5:])
        return float(np.sum(steps[steps > 0.0]))

    def test_noise_reduces_polblogs_oscillation(self):
        plain = SKGSpec.from_library("polblogs", k=10)
        base = self.oscillation(expected_degree_histogram(plain))
        assert base > 1.0, "plain SKG must show the staircase artifact"
        for noise_seed in range(3):
            noisy = SKGSpec.from_library(
                "polblogs", k=10, noise_b=0.1, noise_seed=noise_seed
            )
            smoothed = self.oscillation(expected_degree_histogram(noisy))
            assert smoothed < 0.5 * base, (noise_seed, smoothed, base)

    def test_noise_preserves_expected_edge_count(self):
        # The correction preserves each level's matrix *sum*, so the
        # loop-inclusive expected pair count ``(sum theta)**k`` is exact;
        # the diagonal (trace) shifts, so loop-free counts drift only by
        # the expected-loop difference (sub-0.01% at this scale).
        plain = SKGSpec.from_library("polblogs", k=10, self_loops=True)
        noisy = SKGSpec.from_library(
            "polblogs", k=10, noise_b=0.1, self_loops=True
        )
        assert expected_edge_rows(noisy) == pytest.approx(
            expected_edge_rows(plain), rel=1e-9
        )
        loopless = SKGSpec.from_library("polblogs", k=10)
        loopless_noisy = SKGSpec.from_library("polblogs", k=10, noise_b=0.1)
        assert expected_edge_rows(loopless_noisy) == pytest.approx(
            expected_edge_rows(loopless), rel=1e-3
        )
