"""Unit tests for repro.distributed.generator and aggregate."""

import numpy as np
import pytest

from repro.distributed import (
    distributed_degree_counts,
    distributed_degree_histogram,
    distributed_edge_count,
    distributed_max_vertex,
    generate_distributed,
    partition_edges_1d,
    spmd_run,
)
from repro.errors import PartitionError
from repro.graph import cycle, erdos_renyi
from repro.kronecker import kron_product


@pytest.fixture
def factors():
    return erdos_renyi(9, 0.4, seed=131), cycle(7)


class TestGenerateDistributed:
    @pytest.mark.parametrize("scheme", ["1d", "2d"])
    @pytest.mark.parametrize("nranks", [1, 2, 5])
    def test_matches_serial(self, factors, scheme, nranks):
        a, b = factors
        got, outputs = generate_distributed(a, b, nranks, scheme=scheme)
        assert got == kron_product(a, b)
        assert len(outputs) == nranks

    @pytest.mark.parametrize("storage", ["source_block", "edge_hash"])
    def test_shuffle_preserves_content(self, factors, storage):
        a, b = factors
        got, outputs = generate_distributed(
            a, b, 4, scheme="1d", storage=storage
        )
        assert got == kron_product(a, b)

    def test_source_block_storage_localizes_rows(self, factors):
        a, b = factors
        n_c = a.n * b.n
        _, outputs = generate_distributed(
            a, b, 4, scheme="1d", storage="source_block"
        )
        # after the shuffle, each rank holds only edges whose source falls
        # in its block range
        for out in outputs:
            if len(out.edges):
                owners = (out.edges[:, 0] * 4) // n_c
                assert np.all(owners == out.rank)

    def test_generated_counts_sum_to_total(self, factors):
        a, b = factors
        _, outputs = generate_distributed(a, b, 3, scheme="2d")
        assert sum(o.generated for o in outputs) == a.m_directed * b.m_directed

    def test_generation_load_balanced_1d(self, factors):
        a, b = factors
        _, outputs = generate_distributed(a, b, 4, scheme="1d")
        gen = [o.generated for o in outputs]
        assert max(gen) <= (a.m_directed // 4 + 1) * b.m_directed

    def test_small_chunks_equivalent(self, factors):
        a, b = factors
        got, _ = generate_distributed(a, b, 3, scheme="1d", chunk_size=17)
        assert got == kron_product(a, b)

    def test_unknown_scheme(self, factors):
        a, b = factors
        with pytest.raises(PartitionError):
            generate_distributed(a, b, 2, scheme="3d")

    def test_process_backend(self, factors):
        a, b = factors
        got, _ = generate_distributed(
            a, b, 2, scheme="2d", storage="edge_hash", backend="process"
        )
        assert got == kron_product(a, b)


class TestAggregates:
    def _shards(self, el, nranks):
        return [p.edges for p in partition_edges_1d(el, nranks)]

    def test_edge_count(self, factors):
        a, b = factors
        c = kron_product(a, b)
        shards = self._shards(c, 3)

        def fn(comm):
            return distributed_edge_count(comm, shards[comm.rank])

        assert spmd_run(fn, 3) == [c.m_directed] * 3

    def test_degree_counts(self, factors):
        a, b = factors
        c = kron_product(a, b)
        shards = self._shards(c, 4)
        expect = np.bincount(c.edges[:, 0], minlength=c.n)

        def fn(comm):
            return distributed_degree_counts(comm, shards[comm.rank], c.n)

        for result in spmd_run(fn, 4):
            assert np.array_equal(result, expect)

    def test_degree_histogram(self, factors):
        a, b = factors
        c = kron_product(a, b)
        shards = self._shards(c, 2)
        expect = np.bincount(np.bincount(c.edges[:, 0], minlength=c.n))

        def fn(comm):
            return distributed_degree_histogram(comm, shards[comm.rank], c.n)

        for result in spmd_run(fn, 2):
            assert np.array_equal(result, expect)

    def test_max_vertex(self, factors):
        a, b = factors
        c = kron_product(a, b)
        shards = self._shards(c, 3)

        def fn(comm):
            return distributed_max_vertex(comm, shards[comm.rank])

        assert spmd_run(fn, 3) == [int(c.edges.max())] * 3

    def test_max_vertex_empty(self):
        def fn(comm):
            return distributed_max_vertex(comm, np.empty((0, 2), dtype=np.int64))

        assert spmd_run(fn, 2) == [-1, -1]
