"""Integration tests: full pipelines across modules.

These exercise the paper's workflows end to end -- file I/O -> distributed
generation -> ground truth -> validation -- at reduced scale.
"""

import numpy as np
import pytest

from repro.analytics import (
    degrees,
    eccentricities,
    global_triangles,
    vertex_triangles,
)
from repro.distributed import generate_distributed
from repro.graph import gnutella_like, groundtruth_like, groundtruth_partition
from repro.graph.io import read_text, write_partitioned, read_partition_shard, write_text
from repro.groundtruth import factor_triangle_stats, vertex_triangles_full_loops
from repro.kronecker import KroneckerGraph, RejectionFamily, kron_product, kron_with_full_loops
from repro.validation import validate_algorithm, validate_product
from tests.conftest import random_connected_factor


class TestFileToValidationPipeline:
    def test_paper_workflow(self, tmp_path):
        """Write factors to file, read back, generate distributed, validate."""
        a = random_connected_factor(8, seed=151)
        b = random_connected_factor(7, seed=152)
        write_text(a, tmp_path / "a.txt")
        write_text(b, tmp_path / "b.txt")

        a2 = read_text(tmp_path / "a.txt")
        b2 = read_text(tmp_path / "b.txt")
        assert a2 == a and b2 == b

        report = validate_product(a2, b2)
        assert report.passed, report.to_text()

    def test_partitioned_read_feeds_ranks(self, tmp_path):
        """Each rank reads its own shard of A, as the paper's generator does."""
        a = random_connected_factor(10, seed=153)
        b = random_connected_factor(5, seed=154)
        nranks = 3
        write_partitioned(a, tmp_path / "a_parts", nranks)
        shards = [
            read_partition_shard(tmp_path / "a_parts", r, n=a.n)
            for r in range(nranks)
        ]
        pieces = [kron_product(s, b).edges for s in shards if s.m_directed]
        got = np.vstack(pieces)
        from repro.graph import EdgeList

        assert EdgeList(got, a.n * b.n) == kron_product(a, b)


class TestDistributedEqualsLazyEqualsSerial:
    def test_three_representations_agree(self):
        a = random_connected_factor(9, seed=161)
        b = random_connected_factor(6, seed=162)
        serial = kron_product(a, b)
        lazy = KroneckerGraph(a, b)
        dist, _ = generate_distributed(a, b, 4, scheme="2d", storage="edge_hash")
        assert serial == dist
        assert lazy.to_edgelist() == serial
        assert lazy.m_directed == dist.m_directed


class TestBenchmarkConsumerWorkflow:
    """The paper's use case: validate an algorithm against ground truth."""

    def test_correct_triangle_counter_validates(self):
        a = random_connected_factor(8, seed=171)
        b = random_connected_factor(7, seed=172)
        c = kron_with_full_loops(a, b)
        truth = vertex_triangles_full_loops(
            factor_triangle_stats(a), factor_triangle_stats(b)
        )
        result = validate_algorithm(vertex_triangles, truth, c)
        assert result.passed

    def test_networkx_triangle_counter_validates(self):
        """A completely independent implementation also matches the formulas."""
        import networkx as nx

        a = random_connected_factor(7, seed=173)
        b = random_connected_factor(6, seed=174)
        c = kron_with_full_loops(a, b)
        truth = vertex_triangles_full_loops(
            factor_triangle_stats(a), factor_triangle_stats(b)
        )

        def nx_triangles(graph):
            g = graph.without_self_loops().to_networkx()
            tri = nx.triangles(g)
            return np.array([tri[v] for v in range(graph.n)])

        assert validate_algorithm(nx_triangles, truth, c).passed

    def test_rejection_family_still_validatable(self):
        """Def. 8 workflow: the nu=1 member is exactly Kronecker; subgraph
        members have expectations derived from the same ground truth."""
        a = random_connected_factor(8, seed=175)
        c = kron_with_full_loops(a, a).without_self_loops()
        fam = RejectionFamily(c, seed=99)
        subs = fam.subgraph_family([1.0, 0.9])
        assert subs[1.0] == c
        tau_full = global_triangles(c)
        tau_sub = global_triangles(subs[0.9])
        assert tau_sub <= tau_full
        # loose expectation band (single hash draw)
        assert tau_sub >= 0.5 * 0.9**3 * tau_full


class TestDatasetExperimentsAtScale:
    def test_gnutella_pipeline_small(self):
        a = gnutella_like(n=80)
        c, _ = generate_distributed(a, a, 2, scheme="1d")
        ecc_a = eccentricities(a)
        ecc_c = eccentricities(c)
        i = np.arange(c.n) // a.n
        k = np.arange(c.n) % a.n
        assert np.array_equal(ecc_c, np.maximum(ecc_a[i], ecc_a[k]))

    def test_groundtruth_sbm_pipeline_small(self):
        from repro.analytics.communities import (
            labels_from_partition,
            partition_stats_labeled,
        )
        from repro.groundtruth import community_stats_product, kron_partition
        from repro.analytics.communities import partition_stats

        a = groundtruth_like(num_blocks=4, block_size=10, seed=7)
        parts_a = groundtruth_partition(num_blocks=4, block_size=10)
        c = kron_with_full_loops(a, a)
        parts_c = kron_partition(parts_a, parts_a, a.n)
        stats_a = partition_stats(a, parts_a)
        law = [community_stats_product(x, y) for x in stats_a for y in stats_a]
        direct = partition_stats_labeled(
            c, labels_from_partition(parts_c, c.n), len(parts_c)
        )
        for lw, dr in zip(law, direct):
            assert (lw.m_in, lw.m_out) == (dr.m_in, dr.m_out)

    def test_scaling_law_table_on_datasets(self):
        a = gnutella_like(n=60, with_self_loops=False)
        b = groundtruth_like(num_blocks=3, block_size=8, seed=11)
        # b may be disconnected at this density; table needs connected factors
        from repro.analytics import is_connected
        from repro.graph import largest_connected_component

        if not is_connected(b):
            b = largest_connected_component(b)
        if not is_connected(a):
            from repro.graph import largest_connected_component as lcc

            a = lcc(a)
        report = validate_product(a, b)
        assert report.passed, report.to_text()
