"""Kernel microbenchmarks: the hot paths behind every experiment.

Tracks the throughput of the library's innermost vectorized kernels --
edge-block expansion, edge hashing, BFS, dedup normalization, streaming
validation -- so regressions in the foundations show up before they distort
the experiment-level benches.
"""

import numpy as np
import pytest

from repro.analytics.bfs import bfs_levels, bfs_levels_multi
from repro.analytics.distances import hop_matrix
from repro.distributed.shuffle import bucket_edges
from repro.graph import CSRGraph, gnutella_like
from repro.kronecker.product import (
    iter_kron_product,
    kron_edge_block,
    kron_edge_block_routed,
)
from repro.util.hashing import edge_uniform
from repro.validation.streaming import StreamingValidator

#: World size used by the bucketing/routing microbenches.
NPARTS = 8


@pytest.fixture(scope="module")
def big_factor():
    return gnutella_like(n=400)


@pytest.fixture(scope="module")
def million_edge_block():
    """A 1M-edge product-like block over a 10M-vertex id space."""
    rng = np.random.default_rng(12345)
    return rng.integers(0, 10_000_000, size=(1_000_000, 2), dtype=np.int64)


def test_bench_kron_edge_block(benchmark, big_factor):
    """Outer-product expansion rate (the generation kernel)."""
    a = big_factor.edges[:512]
    b = big_factor.edges[:512]
    out = benchmark(kron_edge_block, a, b, big_factor.n)
    assert len(out) == 512 * 512


def test_bench_chunked_stream(benchmark, big_factor):
    """Chunked streaming overhead vs one-shot expansion."""
    small = big_factor.induced_subgraph(np.arange(120))

    def stream():
        total = 0
        for blk in iter_kron_product(small, small, 1 << 16):
            total += len(blk)
        return total

    total = benchmark(stream)
    assert total == small.m_directed**2


@pytest.mark.parametrize("method", ["argsort", "scatter"])
@pytest.mark.parametrize("scheme", ["source_block", "edge_hash"])
def test_bench_bucketing(benchmark, million_edge_block, method, scheme):
    """Owner bucketing on a 1M-edge block: legacy argsort vs sort-free scatter.

    The acceptance bar for the fused hot path: ``scatter`` must be at least
    2x ``argsort`` on the ``source_block`` scheme (compare the two
    parametrizations in the saved benchmark JSON).
    """
    buckets = benchmark(
        bucket_edges,
        million_edge_block,
        NPARTS,
        scheme=scheme,
        n=10_000_000,
        method=method,
    )
    assert sum(len(b) for b in buckets) == len(million_edge_block)


@pytest.mark.parametrize("kernel", ["legacy", "routed"])
def test_bench_routed_expansion(benchmark, big_factor, kernel):
    """Generate-and-bucket a ~1M-edge product block: expand+argsort vs routed.

    ``legacy`` expands the outer product then argsort-buckets it;
    ``routed`` writes each owner's slice directly from the factor structure,
    a few broadcast adds over windows of source-sorted B.
    """
    a = big_factor.edges[:1024]
    b = big_factor.edges[:1024]
    n_c = big_factor.n * big_factor.n

    def legacy():
        block = kron_edge_block(a, b, big_factor.n)
        return bucket_edges(
            block, NPARTS, scheme="source_block", n=n_c, method="argsort"
        )

    def routed():
        return kron_edge_block_routed(a, b, big_factor.n, NPARTS, n_c)

    buckets = benchmark(legacy if kernel == "legacy" else routed)
    # B's rows come sorted by source, so the routed slices are the stable
    # argsort buckets of the dense block row for row.
    assert np.all(np.diff(b[:, 0]) >= 0)
    for got, want in zip(buckets, legacy(), strict=True):
        assert np.array_equal(got, want)


def test_bench_edge_hashing(benchmark):
    """Def. 8 hash throughput on 1M edges."""
    rng = np.random.default_rng(0)
    u = rng.integers(0, 10**9, size=1_000_000)
    v = rng.integers(0, 10**9, size=1_000_000)
    out = benchmark(edge_uniform, u, v)
    assert len(out) == 1_000_000


def test_bench_bfs(benchmark, big_factor):
    """Single-source BFS on the scale-free factor."""
    csr = CSRGraph.from_edgelist(big_factor)
    levels = benchmark(bfs_levels, csr, 0)
    assert levels.max() >= 1


def test_bench_bfs_multi(benchmark, big_factor):
    """Batched 256-source BFS sweep (the all-pairs analytics kernel)."""
    csr = CSRGraph.from_edgelist(big_factor)
    sources = np.arange(256, dtype=np.int64)
    levels = benchmark(bfs_levels_multi, csr, sources)
    assert levels.shape == (256, csr.n)


def test_bench_hop_matrix(benchmark, big_factor):
    """All-pairs hops on the n=400 scale-free factor through the batched
    multi-source BFS (the Fig. 1 / validation workload)."""
    out = benchmark.pedantic(
        hop_matrix, args=(big_factor,), rounds=3, iterations=1
    )
    assert out.shape == (big_factor.n, big_factor.n)


def test_bench_dedup_normalization(benchmark, big_factor):
    """Keyed-sort dedup on a ~1M-row product edge array."""
    from repro.kronecker import kron_product

    sub = big_factor.induced_subgraph(np.arange(150))
    c = kron_product(sub, sub)
    el = benchmark(c.deduplicate)
    assert el.m_directed <= c.m_directed


def test_bench_streaming_validation(benchmark, big_factor):
    """Streaming-validator consumption rate."""
    small = big_factor.induced_subgraph(np.arange(100))
    chunks = list(iter_kron_product(small, small, 1 << 15))

    def validate():
        sv = StreamingValidator(small, small)
        for blk in chunks:
            sv.consume(blk)
        return sv.passed

    assert benchmark(validate)
