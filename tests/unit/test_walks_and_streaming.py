"""Unit tests for walk-count ground truth and the streamed product's fold."""

import numpy as np
import pytest

from repro.errors import AssumptionError
from repro.graph import EdgeList, clique, cycle, erdos_renyi, path
from repro.groundtruth.walks import (
    closed_walk_totals,
    closed_walk_totals_product,
    walk_counts,
    walk_counts_product,
)
from repro.groundtruth.directed import out_degrees, out_degrees_product
from repro.kronecker import iter_kron_product, kron_product
from repro.util.hashing import edge_fingerprint, merge_fingerprints


class TestWalkCounts:
    def test_h_zero_identity(self):
        w = walk_counts(cycle(4), 0)
        assert np.array_equal(w.toarray(), np.eye(4))

    def test_h_one_is_adjacency(self, er_a):
        w = walk_counts(er_a, 1)
        assert (w - er_a.to_scipy_sparse()).nnz == 0

    def test_matches_dense_power(self, er_a):
        dense = er_a.to_scipy_sparse().toarray()
        for h in (2, 3, 5):
            expect = np.linalg.matrix_power(dense, h)
            assert np.allclose(walk_counts(er_a, h).toarray(), expect)

    def test_negative_rejected(self, er_a):
        with pytest.raises(AssumptionError):
            walk_counts(er_a, -1)

    def test_product_law(self, er_a, er_b):
        c = kron_product(er_a, er_b)
        for h in (1, 2, 3):
            law = walk_counts_product(
                walk_counts(er_a, h), walk_counts(er_b, h)
            )
            direct = walk_counts(c, h)
            assert abs(law - direct).max() < 1e-9

    def test_path_walk_values(self):
        # P3: walks of length 2 from endpoint to endpoint = 1 (via center)
        w2 = walk_counts(path(3), 2).toarray()
        assert w2[0, 2] == 1
        assert w2[0, 0] == 1  # out and back


class TestClosedWalks:
    def test_known_identities(self, er_a):
        from repro.analytics import global_triangles

        totals = closed_walk_totals(er_a, 3)
        assert totals[0] == er_a.n
        assert totals[1] == 0  # loop-free
        assert totals[2] == er_a.m_directed
        assert totals[3] == 6 * global_triangles(er_a)

    def test_product_law(self, er_a, er_b):
        c = kron_product(er_a, er_b)
        law = closed_walk_totals_product(
            closed_walk_totals(er_a, 4), closed_walk_totals(er_b, 4)
        )
        direct = closed_walk_totals(c, 4)
        assert np.allclose(law, direct)

    def test_mismatched_ranges_rejected(self):
        with pytest.raises(AssumptionError):
            closed_walk_totals_product(np.zeros(3), np.zeros(4))


def _fold(chunks, n):
    """Edge count, self loops, out-degrees and fingerprint of a chunk stream."""
    edges = loops = 0
    outdeg = np.zeros(n, dtype=np.int64)
    parts = []
    for chunk in chunks:
        chunk = np.asarray(chunk, dtype=np.int64).reshape(-1, 2)
        edges += len(chunk)
        loops += int(np.count_nonzero(chunk[:, 0] == chunk[:, 1]))
        outdeg += np.bincount(chunk[:, 0], minlength=n)
        parts.append(edge_fingerprint(chunk))
    return edges, loops, outdeg, merge_fingerprints(parts)


class TestStreamingValidator:
    """A streamed product checked chunk by chunk against the counting laws.

    The class name is kept from the deleted validator object; the fold it
    held is now ``_fold`` above, and its fingerprint is compared with the
    serial product's, which the object never did.
    """

    def _expect(self, a, b):
        c = kron_product(a, b)
        outdeg = out_degrees_product(
            out_degrees(a, include_loops=True), out_degrees(b, include_loops=True)
        )
        return a.m_directed * b.m_directed, 0, outdeg, edge_fingerprint(c.edges)

    def _assert_matches(self, got, want):
        assert got[:2] == want[:2]
        assert np.array_equal(got[2], want[2])
        assert got[3] == want[3]

    def test_accepts_full_stream(self, er_a, er_b):
        n = er_a.n * er_b.n
        got = _fold(iter_kron_product(er_a, er_b, 64), n)
        self._assert_matches(got, self._expect(er_a, er_b))

    def test_fingerprint_order_independent(self, er_a, er_b):
        n = er_a.n * er_b.n
        chunks = list(iter_kron_product(er_a, er_b, 32))
        assert len(chunks) > 1
        assert _fold(chunks, n)[3] == _fold(reversed(chunks), n)[3]

    def test_fingerprint_sees_a_duplicated_chunk(self, er_a, er_b):
        # An XOR fold cancels a chunk consumed twice more; the sum does not.
        n = er_a.n * er_b.n
        chunks = list(iter_kron_product(er_a, er_b, 32))
        once = _fold(chunks, n)[3]
        thrice = _fold(chunks + [chunks[0], chunks[0]], n)[3]
        assert once != thrice

    def test_validates_distributed_stream(self, er_a, er_b):
        """Shards from a distributed run fold exactly like serial chunks."""
        from repro.distributed import generate_distributed

        _, outputs = generate_distributed(er_a, er_b, 3, scheme="2d")
        got = _fold((out.edges for out in outputs), er_a.n * er_b.n)
        self._assert_matches(got, self._expect(er_a, er_b))
