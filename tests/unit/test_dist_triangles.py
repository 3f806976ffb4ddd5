"""Unit tests for distributed triangle counting (distributed.triangles)."""

import numpy as np
import pytest

from repro.analytics import edge_triangles, global_triangles
from repro.distributed import generate_distributed, spmd_run
from repro.distributed.partition import owners_by_vertex_block
from repro.distributed.triangles import (
    distributed_edge_triangles,
    distributed_global_triangles,
    fetch_remote_rows,
    local_rows_csr,
)
from repro.errors import PartitionError
from repro.graph import clique, erdos_renyi
from repro.kronecker import kron_product


def _block_shards(el, nranks):
    """Split a symmetric edge list by source-vertex block (storage layout)."""
    owners = owners_by_vertex_block(el.src, el.n, nranks)
    return [el.edges[owners == r] for r in range(nranks)]


@pytest.fixture
def graph():
    a = erdos_renyi(8, 0.45, seed=701)
    b = erdos_renyi(7, 0.5, seed=702)
    return kron_product(a, b)


class TestFetchRemoteRows:
    def test_local_and_remote_rows(self, graph):
        nranks = 3
        shards = _block_shards(graph, nranks)

        def fn(comm):
            csr = local_rows_csr(shards[comm.rank], graph.n)
            wanted = np.arange(graph.n)
            rows = fetch_remote_rows(comm, csr, wanted, graph.n)
            return rows

        from repro.graph import CSRGraph

        full = CSRGraph.from_edgelist(graph.without_self_loops())
        for rows in spmd_run(fn, nranks):
            assert set(rows) == set(range(graph.n))
            for v, row in rows.items():
                assert np.array_equal(row, full.neighbors(v))


class TestDistributedEdgeTriangles:
    @pytest.mark.parametrize("nranks", [1, 2, 4])
    def test_matches_serial_per_edge(self, graph, nranks):
        shards = _block_shards(graph, nranks)

        def fn(comm):
            return distributed_edge_triangles(comm, shards[comm.rank], graph.n)

        results = spmd_run(fn, nranks)
        for edges, counts in results:
            if len(edges) == 0:
                continue
            expect = edge_triangles(graph, edges)
            assert np.array_equal(counts, expect)

    def test_wrong_block_rejected(self, graph):
        shards = _block_shards(graph, 2)

        def fn(comm):
            other = shards[1 - comm.rank]
            try:
                distributed_edge_triangles(comm, other, graph.n)
            except PartitionError:
                return True
            return False

        assert all(spmd_run(fn, 2))

    def test_self_loops_ignored(self):
        g = clique(6).with_full_self_loops()
        shards = _block_shards(g, 2)

        def fn(comm):
            edges, counts = distributed_edge_triangles(comm, shards[comm.rank], g.n)
            return counts

        for counts in spmd_run(fn, 2):
            assert np.all(counts == 4)  # K6 edge triangles


class TestDistributedGlobalTriangles:
    @pytest.mark.parametrize("nranks", [2, 3, 5])
    def test_matches_serial(self, graph, nranks):
        shards = _block_shards(graph, nranks)

        def fn(comm):
            return distributed_global_triangles(comm, shards[comm.rank], graph.n)

        expect = global_triangles(graph)
        assert spmd_run(fn, nranks) == [expect] * nranks

    def test_full_pipeline_generate_then_count(self):
        """Generate with source_block storage, count in place, validate
        against the Kronecker ground truth -- the paper's whole loop."""
        from repro.groundtruth import (
            factor_triangle_stats,
            global_triangles_full_loops,
        )
        from repro.kronecker import kron_with_full_loops

        a = erdos_renyi(7, 0.5, seed=703)
        b = erdos_renyi(6, 0.5, seed=704)
        truth = global_triangles_full_loops(
            factor_triangle_stats(a), factor_triangle_stats(b)
        )
        af, bf = a.with_full_self_loops(), b.with_full_self_loops()
        nranks = 3
        _, outputs = generate_distributed(
            af, bf, nranks, scheme="1d", storage="source_block"
        )
        shards = [o.edges for o in outputs]
        n_c = af.n * bf.n

        def fn(comm):
            return distributed_global_triangles(comm, shards[comm.rank], n_c)

        assert spmd_run(fn, nranks) == [truth] * nranks
