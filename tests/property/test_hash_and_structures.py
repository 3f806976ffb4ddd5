"""Property-based tests: hashing invariants, EdgeList normalization, partitions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.partition import partition_edges_1d, partition_edges_2d
from repro.graph import EdgeList
from repro.kronecker import RejectionFamily, kron_product
from repro.util.hashing import (
    edge_fingerprint,
    edge_uniform,
    edges_digest,
    hash_pair,
    merge_fingerprints,
)

from tests.property.test_kron_properties import edge_lists


class TestHashProperties:
    @given(
        u=st.integers(0, 2**40),
        v=st.integers(0, 2**40),
        seed=st.integers(0, 2**31),
    )
    def test_undirected_symmetry(self, u, v, seed):
        assert hash_pair(u, v, seed) == hash_pair(v, u, seed)

    @given(u=st.integers(0, 2**40), v=st.integers(0, 2**40))
    def test_uniform_in_range(self, u, v):
        x = float(edge_uniform(u, v))
        assert 0.0 <= x < 1.0

    @given(
        u=st.integers(0, 2**30),
        v=st.integers(0, 2**30),
        s1=st.integers(0, 100),
        s2=st.integers(101, 200),
    )
    def test_seeds_give_different_streams_somewhere(self, u, v, s1, s2):
        # not guaranteed per-pair, but colliding on 64 bits is measure-zero;
        # we assert inequality which catches seed being ignored entirely
        assert hash_pair(u, v, s1) != hash_pair(u, v, s2)


edge_arrays = st.lists(
    st.tuples(st.integers(0, 2**40), st.integers(0, 2**40)), max_size=40
).map(lambda rows: np.array(rows, dtype=np.int64).reshape(-1, 2))


class TestFingerprintProperties:
    """The union identity run manifests rely on."""

    @given(edges=edge_arrays, seed=st.integers(0, 2**31))
    def test_permutation_invariant(self, edges, seed):
        shuffled = np.random.default_rng(seed).permutation(edges)
        assert edge_fingerprint(shuffled) == edge_fingerprint(edges)

    @given(edges=edge_arrays, cuts=st.lists(st.integers(0, 40), max_size=4))
    def test_parts_merge_to_the_whole(self, edges, cuts):
        parts = np.split(edges, sorted(c % (len(edges) + 1) for c in cuts))
        assert merge_fingerprints(
            edge_fingerprint(p) for p in parts
        ) == edge_fingerprint(edges)

    @given(edges=edge_arrays.filter(len), pick=st.integers(0, 39))
    def test_duplicated_row_is_seen(self, edges, pick):
        # The XOR fold this replaced cannot: x ^ h ^ h == x.
        row = edges[pick % len(edges)][None, :]
        twice = np.vstack([edges, row, row])
        assert edge_fingerprint(twice) != edge_fingerprint(edges)
        assert edge_fingerprint(np.vstack([edges, row])) != (
            edge_fingerprint(edges)
        )

    @given(u=st.integers(0, 2**40), v=st.integers(0, 2**40))
    def test_direction_sensitive(self, u, v):
        if u != v:
            assert edge_fingerprint([[u, v]]) != edge_fingerprint([[v, u]])

    def test_empty_is_the_identity(self):
        empty = np.empty((0, 2), dtype=np.int64)
        assert edge_fingerprint(empty) == 0
        assert merge_fingerprints([]) == 0
        assert 0 <= edge_fingerprint([[2**40, 1]] * 3) < 2**64

    @given(edges=edge_arrays.filter(lambda e: len(e) > 1))
    def test_order_sensitive_digest_is_not_the_fingerprint(self, edges):
        # The per-shard digest keeps telling row orders apart.
        if not np.array_equal(edges, edges[::-1]):
            assert edges_digest(edges) != edges_digest(edges[::-1])


class TestRejectionProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        el=edge_lists(max_n=6, max_m=15, symmetric=True),
        nu1=st.floats(min_value=0.0, max_value=1.0),
        nu2=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(0, 1000),
    )
    def test_monotone_nesting(self, el, nu1, nu2, seed):
        lo, hi = min(nu1, nu2), max(nu1, nu2)
        fam = RejectionFamily(el, seed=seed)
        g_lo = {tuple(e) for e in fam.subgraph(lo).edges}
        g_hi = {tuple(e) for e in fam.subgraph(hi).edges}
        assert g_lo <= g_hi

    @settings(max_examples=20, deadline=None)
    @given(el=edge_lists(max_n=6, max_m=15, symmetric=True), seed=st.integers(0, 1000))
    def test_symmetry_preserved(self, el, seed):
        sub = RejectionFamily(el, seed=seed).subgraph(0.6)
        assert sub.is_symmetric()

    @settings(max_examples=20, deadline=None)
    @given(
        el=edge_lists(max_n=6, max_m=15),
        nus=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
        seed=st.integers(0, 1000),
    )
    def test_family_consistent_with_singles(self, el, nus, seed):
        fam = RejectionFamily(el, seed=seed)
        subs = fam.subgraph_family(nus)
        for nu, sub in subs.items():
            assert sub == fam.subgraph(nu)


class TestEdgeListNormalization:
    @settings(max_examples=40, deadline=None)
    @given(el=edge_lists(max_n=8, max_m=25))
    def test_symmetrized_is_symmetric_and_idempotent(self, el):
        s = el.symmetrized()
        assert s.is_symmetric()
        assert s.symmetrized() == s

    @settings(max_examples=40, deadline=None)
    @given(el=edge_lists(max_n=8, max_m=25))
    def test_deduplicate_idempotent(self, el):
        d = el.deduplicate()
        assert d.deduplicate() == d
        assert not d.has_duplicates()

    @settings(max_examples=40, deadline=None)
    @given(el=edge_lists(max_n=8, max_m=25))
    def test_loop_surgery_roundtrip(self, el):
        stripped = el.with_full_self_loops().without_self_loops()
        assert stripped == el.without_self_loops().deduplicate() or \
            stripped == el.without_self_loops()
        assert el.with_full_self_loops().num_self_loops == el.n

    @settings(max_examples=40, deadline=None)
    @given(el=edge_lists(max_n=8, max_m=25))
    def test_scipy_round_trip_after_dedup(self, el):
        d = el.deduplicate()
        assert EdgeList.from_scipy_sparse(d.to_scipy_sparse()) == d


class TestPartitionProperties:
    @settings(max_examples=30, deadline=None)
    @given(el=edge_lists(max_n=8, max_m=30), nparts=st.integers(1, 10))
    def test_1d_parts_disjoint_and_complete(self, el, nparts):
        parts = partition_edges_1d(el, nparts)
        assert len(parts) == nparts
        total = sum(p.m_directed for p in parts)
        assert total == el.m_directed
        stacked = np.vstack([p.edges for p in parts])
        assert np.array_equal(stacked, el.edges)

    @settings(max_examples=15, deadline=None)
    @given(
        a=edge_lists(max_n=5, max_m=10),
        b=edge_lists(max_n=5, max_m=10),
        nranks=st.integers(1, 9),
    )
    def test_2d_cells_reconstruct_product(self, a, b, nranks):
        assignments = partition_edges_2d(a, b, nranks)
        pieces = [
            kron_product(pa, pb).edges
            for cells in assignments
            for pa, pb in cells
        ]
        nonempty = [p for p in pieces if len(p)]
        expect = kron_product(a, b)
        if nonempty:
            got = EdgeList(np.vstack(nonempty), expect.n)
            assert got == expect
        else:
            assert expect.m_directed == 0
