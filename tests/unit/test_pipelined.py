"""Unit tests for pipelined (per-chunk shuffle) distributed generation."""

import numpy as np
import pytest

from repro.distributed import GenerationPlan, KronPair, generate_distributed
from repro.distributed.checkpoint import generation_run_key
from repro.errors import PartitionError
from repro.graph import cycle, erdos_renyi
from repro.kronecker import kron_product


@pytest.fixture
def factors():
    return erdos_renyi(9, 0.4, seed=901), cycle(7)  # |E_B| = 14


class TestPipelined1D:
    @pytest.mark.parametrize("nranks", [1, 2, 4])
    def test_matches_serial(self, factors, nranks):
        a, b = factors
        got, _ = generate_distributed(a, b, nranks, scheme="1d-pipelined")
        assert got == kron_product(a, b)

    @pytest.mark.parametrize("chunk", [3, 13, 14, 15, 50, 10**6])
    def test_all_chunk_regimes(self, factors, chunk):
        """Covers sub-chunk splitting (chunk < |E_B|) and grouped chunks."""
        a, b = factors
        got, _ = generate_distributed(
            a, b, 3, scheme="1d-pipelined", chunk_size=chunk
        )
        assert got == kron_product(a, b)

    def test_default_storage_is_source_block(self, factors):
        a, b = factors
        n_c = a.n * b.n
        _, outputs = generate_distributed(a, b, 4, scheme="1d-pipelined")
        for out in outputs:
            if len(out.edges):
                owners = (out.edges[:, 0] * 4) // n_c
                assert np.all(owners == out.rank)

    def test_edge_hash_storage(self, factors):
        a, b = factors
        got, _ = generate_distributed(
            a, b, 3, scheme="1d-pipelined", storage="edge_hash"
        )
        assert got == kron_product(a, b)

    def test_unbalanced_shards_no_deadlock(self):
        """Ranks with zero A-edges must still join every exchange round."""
        a = erdos_renyi(3, 0.6, seed=902)  # very few edges
        b = cycle(5)
        got, _ = generate_distributed(
            a, b, 6, scheme="1d-pipelined", chunk_size=4
        )
        assert got == kron_product(a, b)

    def test_generated_counts(self, factors):
        a, b = factors
        _, outputs = generate_distributed(a, b, 3, scheme="1d-pipelined")
        assert sum(o.generated for o in outputs) == a.m_directed * b.m_directed

    def test_process_backend(self, factors):
        a, b = factors
        got, _ = generate_distributed(
            a, b, 2, scheme="1d-pipelined", backend="process"
        )
        assert got == kron_product(a, b)


class TestAsyncPipeline:
    @pytest.mark.parametrize("wire", ["raw", "varint"])
    def test_matches_serial(self, factors, wire):
        a, b = factors
        got, _ = generate_distributed(
            a, b, 4, scheme="1d-pipelined", pipeline="async", wire=wire
        )
        assert got == kron_product(a, b)

    @pytest.mark.parametrize("chunk", [3, 14, 50, 10**6])
    def test_all_chunk_regimes(self, factors, chunk):
        a, b = factors
        got, _ = generate_distributed(
            a, b, 3, scheme="1d-pipelined", chunk_size=chunk,
            pipeline="async", wire="varint",
        )
        assert got == kron_product(a, b)

    @pytest.mark.parametrize("wire", ["raw", "varint"])
    def test_async_is_bit_identical_to_sync(self, factors, wire):
        # Stronger than multiset equality: the double-buffered loop must
        # store the same blocks in the same order on every rank, so each
        # rank's raw edge array matches the sync run byte for byte.
        a, b = factors
        _, sync_out = generate_distributed(
            a, b, 4, scheme="1d-pipelined", chunk_size=10,
            pipeline="sync", wire=wire,
        )
        _, async_out = generate_distributed(
            a, b, 4, scheme="1d-pipelined", chunk_size=10,
            pipeline="async", wire=wire,
        )
        for s, y in zip(sync_out, async_out):
            assert np.array_equal(s.edges, y.edges)

    def test_process_backend(self, factors):
        a, b = factors
        got, _ = generate_distributed(
            a, b, 2, scheme="1d-pipelined", backend="process",
            pipeline="async", wire="varint",
        )
        assert got == kron_product(a, b)

    def test_edge_hash_storage(self, factors):
        a, b = factors
        got, _ = generate_distributed(
            a, b, 3, scheme="1d-pipelined", storage="edge_hash",
            pipeline="async", wire="varint",
        )
        assert got == kron_product(a, b)

    def test_unbalanced_shards_no_deadlock(self):
        a = erdos_renyi(3, 0.6, seed=902)  # ranks with zero A-edges
        b = cycle(5)
        got, _ = generate_distributed(
            a, b, 6, scheme="1d-pipelined", chunk_size=4,
            pipeline="async", wire="varint",
        )
        assert got == kron_product(a, b)

    @pytest.mark.parametrize("scheme", ["1d", "2d"])
    def test_async_requires_pipelined_scheme(self, factors, scheme):
        a, b = factors
        with pytest.raises(PartitionError, match="1d-pipelined"):
            generate_distributed(a, b, 2, scheme=scheme, pipeline="async")

    def test_unknown_pipeline_rejected(self, factors):
        a, b = factors
        with pytest.raises(PartitionError, match="pipeline"):
            generate_distributed(
                a, b, 2, scheme="1d-pipelined", pipeline="overlapped"
            )

    def test_unknown_wire_rejected(self, factors):
        a, b = factors
        with pytest.raises(PartitionError, match="wire"):
            generate_distributed(
                a, b, 2, scheme="1d-pipelined", wire="zstd"
            )

    def test_run_key_distinguishes_pipeline_and_wire(self, factors):
        keys = {
            generation_run_key(
                GenerationPlan(
                    "1d-pipelined", pipeline=p, wire=w,
                    source=KronPair(*factors),
                ),
                4,
            )
            for p in ("sync", "async")
            for w in ("raw", "varint")
        }
        assert len(keys) == 4
