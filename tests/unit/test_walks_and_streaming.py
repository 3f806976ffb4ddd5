"""Unit tests for walk-count ground truth and the streaming validator."""

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
from repro.kronecker import iter_kron_product, kron_product
from repro.validation.streaming import StreamingValidator


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


class TestStreamingValidator:
    def test_accepts_full_stream(self, er_a, er_b):
        sv = StreamingValidator(er_a, er_b)
        for chunk in iter_kron_product(er_a, er_b, 64):
            sv.consume(chunk)
        results = sv.finish()
        assert all(r.passed for r in results), [str(r) for r in results]

    def test_passed_property_mid_stream(self, er_a, er_b):
        sv = StreamingValidator(er_a, er_b)
        chunks = list(iter_kron_product(er_a, er_b, 64))
        for chunk in chunks[:-1]:
            sv.consume(chunk)
        assert not sv.passed  # stream incomplete
        sv.consume(chunks[-1])
        assert sv.passed

    def test_detects_missing_edges(self, er_a, er_b):
        sv = StreamingValidator(er_a, er_b)
        chunks = list(iter_kron_product(er_a, er_b, 64))
        for chunk in chunks[:-1]:
            sv.consume(chunk)
        results = sv.finish()
        assert not all(r.passed for r in results)

    def test_detects_corrupted_edges(self, er_a, er_b):
        sv = StreamingValidator(er_a, er_b)
        for i, chunk in enumerate(iter_kron_product(er_a, er_b, 64)):
            if i == 0:
                chunk = chunk.copy()
                chunk[0, 0] = (chunk[0, 0] + 1) % (er_a.n * er_b.n)
            sv.consume(chunk)
        results = sv.finish()
        assert not all(r.passed for r in results)

    def test_out_of_range_rejected(self, er_a, er_b):
        sv = StreamingValidator(er_a, er_b)
        with pytest.raises(AssumptionError):
            sv.consume(np.array([[er_a.n * er_b.n, 0]]))

    def test_consume_after_finish_rejected(self, er_a, er_b):
        sv = StreamingValidator(er_a, er_b)
        sv.finish()
        with pytest.raises(AssumptionError):
            sv.consume(np.array([[0, 0]]))

    def test_fingerprint_order_independent(self, er_a, er_b):
        chunks = list(iter_kron_product(er_a, er_b, 32))
        sv1 = StreamingValidator(er_a, er_b)
        for c in chunks:
            sv1.consume(c)
        sv2 = StreamingValidator(er_a, er_b)
        for c in reversed(chunks):
            sv2.consume(c)
        assert sv1.fingerprint() == sv2.fingerprint()

    def test_fingerprint_sees_a_duplicated_chunk(self, er_a, er_b):
        # An XOR fold cancels a chunk consumed twice more; the sum does not.
        chunks = list(iter_kron_product(er_a, er_b, 32))
        once = StreamingValidator(er_a, er_b)
        thrice = StreamingValidator(er_a, er_b)
        for c in chunks:
            once.consume(c)
            thrice.consume(c)
        thrice.consume(chunks[0])
        thrice.consume(chunks[0])
        assert once.fingerprint() != thrice.fingerprint()

    def test_validates_distributed_stream(self, er_a, er_b):
        """Shards from a distributed run validate exactly like serial chunks."""
        from repro.distributed import generate_distributed

        _, outputs = generate_distributed(er_a, er_b, 3, scheme="2d")
        sv = StreamingValidator(er_a, er_b)
        for out in outputs:
            sv.consume(out.edges)
        assert all(r.passed for r in sv.finish())
