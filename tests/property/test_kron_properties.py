"""Property-based tests: Kronecker algebra (Prop. 1 / Prop. 2, index maps)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import EdgeList
from repro.kronecker import kron_product
from repro.kronecker.indexing import alpha, beta, gamma, split


# ---- strategies ------------------------------------------------------- #
@st.composite
def edge_lists(draw, max_n=8, max_m=20, symmetric=False, no_loops=False):
    """Random small EdgeLists, optionally symmetric / loop-free."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=m,
            max_size=m,
        )
    )
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    el = EdgeList(edges, n)
    if no_loops:
        el = el.without_self_loops()
    if symmetric:
        el = el.symmetrized()
    return el.deduplicate()


# ---- index maps ------------------------------------------------------- #
class TestIndexMaps:
    @given(
        p=st.integers(min_value=0, max_value=10**12),
        n=st.integers(min_value=1, max_value=10**6),
    )
    def test_gamma_inverts_alpha_beta(self, p, n):
        assert gamma(alpha(p, n), beta(p, n), n) == p

    @given(
        i=st.integers(min_value=0, max_value=10**6),
        k=st.integers(min_value=0, max_value=10**6 - 1),
        n=st.integers(min_value=1, max_value=10**6),
    )
    def test_alpha_beta_invert_gamma(self, i, k, n):
        if k >= n:
            k = k % n
        p = gamma(i, k, n)
        assert alpha(p, n) == i
        assert beta(p, n) == k

    @given(p=st.integers(min_value=0, max_value=10**9), n=st.integers(1, 10**4))
    def test_beta_in_range(self, p, n):
        assert 0 <= beta(p, n) < n

    @given(
        ps=st.lists(st.integers(0, 10**9), min_size=1, max_size=50),
        n=st.integers(1, 1000),
    )
    def test_split_vectorized_consistent(self, ps, n):
        arr = np.array(ps, dtype=np.int64)
        i, k = split(arr, n)
        assert np.array_equal(i, arr // n)
        assert np.array_equal(k, arr % n)


# ---- product algebra --------------------------------------------------- #
class TestProductAlgebra:
    @settings(max_examples=40, deadline=None)
    @given(a=edge_lists(), b=edge_lists())
    def test_pattern_matches_dense_kron(self, a, b):
        c = kron_product(a, b)
        dense = np.kron(
            a.to_scipy_sparse().toarray(), b.to_scipy_sparse().toarray()
        )
        assert np.array_equal(c.to_scipy_sparse().toarray(), dense)

    @settings(max_examples=40, deadline=None)
    @given(a=edge_lists(), b=edge_lists())
    def test_edge_count_multiplies(self, a, b):
        assert kron_product(a, b).m_directed == a.m_directed * b.m_directed

    @settings(max_examples=30, deadline=None)
    @given(a=edge_lists(symmetric=True), b=edge_lists(symmetric=True))
    def test_symmetry_preserved(self, a, b):
        assert kron_product(a, b).is_symmetric()

    @settings(max_examples=30, deadline=None)
    @given(a=edge_lists(no_loops=True), b=edge_lists(no_loops=True))
    def test_no_loops_preserved(self, a, b):
        assert kron_product(a, b).has_no_self_loops()

    @settings(max_examples=30, deadline=None)
    @given(a=edge_lists(max_n=5, max_m=10), b=edge_lists(max_n=5, max_m=10))
    def test_transpose_distributes(self, a, b):
        """Prop. 1(c): (A (x) B)^t = A^t (x) B^t."""
        at = EdgeList(a.edges[:, ::-1].copy(), a.n)
        bt = EdgeList(b.edges[:, ::-1].copy(), b.n)
        lhs = kron_product(a, b)
        lhs_t = EdgeList(lhs.edges[:, ::-1].copy(), lhs.n)
        rhs = kron_product(at, bt)
        assert lhs_t == rhs

    @settings(max_examples=25, deadline=None)
    @given(
        a=edge_lists(max_n=4, max_m=8),
        b=edge_lists(max_n=4, max_m=8),
        c=edge_lists(max_n=3, max_m=6),
    )
    def test_mixed_product_property(self, a, b, c):
        """Prop. 1(d) on counts: (A (x) B)(A (x) B) = A^2 (x) B^2."""
        ka = a.to_scipy_sparse().toarray()
        kb = b.to_scipy_sparse().toarray()
        lhs = np.kron(ka, kb) @ np.kron(ka, kb)
        rhs = np.kron(ka @ ka, kb @ kb)
        assert np.allclose(lhs, rhs)

    @settings(max_examples=25, deadline=None)
    @given(a=edge_lists(max_n=4), b=edge_lists(max_n=4))
    def test_hadamard_kronecker_distributivity(self, a, b):
        """Prop. 2(e): (A (x) B) o (A (x) B) = (A o A) (x) (B o B)."""
        ka = a.to_scipy_sparse().toarray()
        kb = b.to_scipy_sparse().toarray()
        lhs = np.kron(ka, kb) * np.kron(ka, kb)
        rhs = np.kron(ka * ka, kb * kb)
        assert np.allclose(lhs, rhs)

    @settings(max_examples=25, deadline=None)
    @given(a=edge_lists(max_n=4), b=edge_lists(max_n=4))
    def test_diag_kronecker_distributivity(self, a, b):
        """Prop. 2(f): diag(A (x) B) = diag(A) (x) diag(B)."""
        ka = a.to_scipy_sparse().toarray()
        kb = b.to_scipy_sparse().toarray()
        assert np.allclose(
            np.diag(np.kron(ka, kb)), np.kron(np.diag(ka), np.diag(kb))
        )


# ---- round layout ---------------------------------------------------- #
class TestRounds:
    """The iterators expand exactly the ``kron_rounds`` blocks, checked
    against the serial product rather than a second copy of the layout."""

    @given(
        a=edge_lists(max_n=5, max_m=9),
        b=edge_lists(max_n=5, max_m=9),
        delta=st.sampled_from([-3, -1, 0, 1, 4, 1000]),
    )
    @settings(max_examples=80, deadline=None)
    def test_iterators_expand_the_layout(self, a, b, delta):
        from repro.distributed.partition import vertex_block_bounds
        from repro.kronecker.product import (
            iter_kron_product,
            iter_kron_product_routed,
            kron_rounds,
        )

        # chunk_size below, at and above m_B (and empty factors).
        chunk = max(1, b.m_directed + delta)
        ma, mb = a.m_directed, b.m_directed
        n_c, nparts = a.n * b.n, 3
        # Row a * m_B + b of the serial product pairs A-edge a, B-edge b.
        rows = kron_product(a, b).edges.reshape(ma, mb, 2)
        index = np.arange(ma * mb).reshape(ma, mb)
        bounds = vertex_block_bounds(n_c, nparts)
        for split_b, limit in ((True, chunk), (False, max(chunk, mb))):
            blocks = kron_rounds(ma, mb, chunk, split_b=split_b)
            # The blocks tile ma x mb in generation order.
            tiled = [index[a0:a1, b0:b1].ravel() for a0, a1, b0, b1 in blocks]
            assert np.array_equal(
                np.concatenate([np.arange(0), *tiled]), np.arange(ma * mb)
            )
            assert all(0 < len(t) <= limit for t in tiled)
            if not split_b:
                assert all((b0, b1) == (0, mb) for _, _, b0, b1 in blocks)
        dense = list(iter_kron_product(a, b, chunk))
        dense_blocks = kron_rounds(ma, mb, chunk, split_b=True)
        assert len(dense) == len(dense_blocks)
        for got, (a0, a1, b0, b1) in zip(dense, dense_blocks):
            assert np.array_equal(got, rows[a0:a1, b0:b1].reshape(-1, 2))
        routed = list(iter_kron_product_routed(a, b, nparts, n_c, chunk))
        routed_blocks = kron_rounds(ma, mb, chunk, split_b=False)
        assert len(routed) == len(routed_blocks)
        for piece, (a0, a1, _, _) in zip(routed, routed_blocks):
            want = rows[a0:a1].reshape(-1, 2)
            got = np.concatenate(piece)
            assert sorted(map(tuple, got)) == sorted(map(tuple, want))
            for d, bucket in enumerate(piece):
                src = bucket[:, 0]
                assert ((bounds[d] <= src) & (src < bounds[d + 1])).all()
