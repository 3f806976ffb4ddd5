"""The grass-hopping sampler draws from the SKG law, pair by pair.

The sampler never looks at a pair it does not emit, so nothing but its
output can show it is right.  Two checks, each against an independent
spelling of the law:

* **Exhaustive, k = 3.**  Over 2,000 seeds every one of the 64 pairs is
  hit with frequency ``P[u -> v]`` (the dense ``np.kron`` reference,
  clipped at 1), within a Bonferroni-corrected 5 sigma: directed and
  undirected, with and without self loops, and noisy at half the
  amplitude cap (the thinning path).
* **Per unit, k = 11.**  Pairs are classified into units here, from
  popcounts, not by the sampler's tables: over 20 seeds each unit's hit
  count is consistent with ``Binomial(20 |H| |L|, p(H) p(L))``, and each
  sample's row count lies within 4 sigma of
  :func:`repro.skg.expected.expected_edge_rows`.
"""

import dataclasses

import numpy as np
import pytest
from scipy.stats import norm

from repro.skg.expected import expected_edge_rows
from repro.skg.model import SKGSpec, probability_matrix
from repro.skg.noisy import max_noise
from repro.skg.sample import skg_sample_edges, skg_sampler

SEEDS = 2000
#: The two-sided tail of 5 sigma, shared out over a family of tests.
FAMILY_ALPHA = 2.0 * norm.sf(5.0)


def bonferroni_z(tests: int) -> float:
    return float(norm.isf(FAMILY_ALPHA / (2.0 * tests)))


def polblogs(**kw) -> SKGSpec:
    return SKGSpec.from_library("polblogs", **kw)


def skewed(**kw) -> SKGSpec:
    return SKGSpec(name="custom", theta=(0.9, 0.6, 0.3, 0.15), **kw)


def noisy(make, **kw) -> SKGSpec:
    cap = max_noise(make(**kw).matrix())
    return make(noise_b=cap / 2.0, noise_seed=4, **kw)


CASES = {
    "undirected": lambda: polblogs(k=3),
    "undirected-loops": lambda: polblogs(k=3, self_loops=True),
    "directed": lambda: skewed(k=3, directed=True),
    "directed-loops": lambda: skewed(k=3, directed=True, self_loops=True),
    "noisy-undirected": lambda: noisy(polblogs, k=3),
    "noisy-directed-loops": lambda: noisy(
        skewed, k=3, directed=True, self_loops=True
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_pair_hit_at_its_probability(case):
    base = CASES[case]()
    n = base.n
    hits = np.zeros(n * n, dtype=np.int64)
    for seed in range(SEEDS):
        spec = dataclasses.replace(base, skg_seed=1000 + seed)
        edges = skg_sample_edges(spec).edges
        hits += np.bincount(edges[:, 0] * n + edges[:, 1], minlength=n * n)
    p = np.clip(probability_matrix(base.level_matrices()), 0.0, 1.0).ravel()
    if not base.self_loops:
        p[:: n + 1] = 0.0
    assert hits.max() <= SEEDS, "a pair was emitted twice in one sample"
    freq = hits / SEEDS
    sigma = np.sqrt(p * (1.0 - p) / SEEDS)
    z = bonferroni_z(n * n)
    # Half a hit of slack: a frequency is a count over SEEDS.
    bad = np.abs(freq - p) > z * sigma + 0.5 / SEEDS
    assert not bad.any(), (case, np.flatnonzero(bad), freq[bad], p[bad])


def _half_keys(a: np.ndarray, b: np.ndarray, bits: int):
    """Class ``(c00, c01, c10, c11)`` and ``a``-vs-``b`` order, as one key."""
    counts = np.zeros((4, len(a)), dtype=np.int64)
    for level in range(bits):
        cell = ((a >> level) & 1) * 2 + ((b >> level) & 1)
        for c in range(4):
            counts[c] += cell == c
    key = ((counts[1] * 64 + counts[2]) * 64 + counts[3]) * 3
    return key + np.sign(a - b) + 1, counts


def _units(spec: SKGSpec):
    """Per unit of ``spec.k``: the key of each pair, and size, probability."""
    k = spec.k
    high, low = k // 2, k - k // 2
    theta = spec.matrix().ravel()
    tables = []
    for bits in (high, low):
        flat = np.arange(1 << (2 * bits), dtype=np.int64)
        key, counts = _half_keys(flat >> bits, flat & ((1 << bits) - 1), bits)
        uniq, first, size = np.unique(key, return_index=True, return_counts=True)
        prob = np.prod(theta[:, None] ** counts[:, first], axis=0)
        tables.append((uniq, size, prob))
    return high, low, tables


def _unit_of(u, v, high, low, tables):
    mask = (1 << low) - 1
    kh, _ = _half_keys(u >> low, v >> low, high)
    kl, _ = _half_keys(u & mask, v & mask, low)
    (uh, _, _), (ul, _, _) = tables
    return np.searchsorted(uh, kh) * len(ul) + np.searchsorted(ul, kl)


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: polblogs(k=11, skg_seed=seed),
        lambda seed: polblogs(k=11, skg_seed=seed, directed=True,
                              self_loops=True),
    ],
    ids=["undirected", "directed-loops"],
)
def test_unit_counts_and_totals_at_k11(make):
    seeds = 20
    base = make(0)
    assert skg_sampler(base).expected_rows == pytest.approx(
        expected_edge_rows(base), rel=1e-9
    )
    high, low, tables = _units(base)
    (_, size_h, prob_h), (_, size_l, prob_l) = tables
    size = np.outer(size_h, size_l).ravel()
    p = np.minimum(1.0, np.outer(prob_h, prob_l)).ravel()
    hits = np.zeros(len(size), dtype=np.int64)
    expect_rows = expected_edge_rows(base)
    for seed in range(seeds):
        edges = skg_sample_edges(make(7000 + seed)).edges
        u, v = edges[:, 0], edges[:, 1]
        if not base.directed:
            # One hit per unordered pair: its u <= v row.
            u, v = u[u <= v], v[u <= v]
        loops = u == v
        hits += np.bincount(
            _unit_of(u, v, high, low, tables), minlength=len(size)
        )
        var = float(np.sum(size * p * (1.0 - p)))
        if not base.directed:
            var *= 2.0  # a hit is two rows
        assert abs(len(edges) - expect_rows) <= 4.0 * np.sqrt(var), seed
        if not base.self_loops:
            assert not loops.any()
    sampled = hits > 0
    if not base.directed:
        # Mirrored units (u > v) hold no u <= v row; compare the others.
        (keys_h, _, _), (keys_l, _, _) = tables
        order_h = np.repeat(keys_h % 3, len(keys_l))
        order_l = np.tile(keys_l % 3, len(keys_h))
        lt, eq = 0, 1
        can = (order_h == lt) | ((order_h == eq) & (order_l == lt))
        if base.self_loops:
            can |= (order_h == eq) & (order_l == eq)
        assert not (sampled & ~can).any()
        size, p, hits = size[can], p[can], hits[can]
    mean = seeds * size * p
    sigma = np.sqrt(seeds * size * p * (1.0 - p))
    z = bonferroni_z(len(size))
    bad = np.abs(hits - mean) > z * sigma + 1.0
    assert not bad.any(), (hits[bad], mean[bad])
