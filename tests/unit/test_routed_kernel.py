"""The routed kernel writes each owner's slice by run-wise broadcast adds.

Stored row order under ``source_block`` is what shard digests, run keys and
resume depend on, so this file pins it against digests computed at the
commit before the broadcast kernel -- on 3 ranks, where owner bounds split
factor rows (partial B windows), and on 4, where they fall on factor rows
-- and bounds the kernel's memory: each owner's slice is the only
product-sized array it allocates.
"""

import tracemalloc

import numpy as np
import pytest

from repro.distributed import edges_digest, generate_distributed
from repro.distributed.partition import partition_edges_1d, vertex_block_bounds
from repro.graph import EdgeList
from repro.graph.generators import cycle, erdos_renyi
from repro.kronecker.product import iter_kron_product_routed, kron_routed_full

#: Per-rank ``(rows, edges_digest)`` of ``erdos_renyi(8, 0.5, seed=11) (x)
#: cycle(5)`` (n_C = 40) under ``source_block`` with ``chunk_size=25``,
#: hard-coded from the commit before the broadcast kernel.
PARENT_DIGESTS = {
    (3, "1d"): [
        (112, 0x94E710B6E7186DEE),
        (80, 0x7B227399B3CF5B75),
        (68, 0x78CBA4CE476E904C),
    ],
    (3, "2d"): [
        (112, 0x6808A17CEA4D5270),
        (80, 0xCA6C81CD5D09C07D),
        (68, 0x3BBC218675FB7551),
    ],
    (3, "1d-pipelined"): [
        (112, 0x1D1C36E742890AA1),
        (80, 0xD16C264217F6E5B7),
        (68, 0x858D66DA9930D7C3),
    ],
    (4, "1d"): [
        (80, 0xA0CFC323F0E187BC),
        (60, 0x0093835883EAB8FA),
        (70, 0xE87BDF5FC26FE8B5),
        (50, 0xD88C8D81CDF30F18),
    ],
    (4, "2d"): [
        (80, 0x966A1F6E83CAF0E4),
        (60, 0xDEB8FC0EC2352FE4),
        (70, 0xB5C5652977A3990D),
        (50, 0xC6C4DB15D3504AFD),
    ],
    (4, "1d-pipelined"): [
        (80, 0x9CA213D6E781BA58),
        (60, 0x021255C2085BA586),
        (70, 0xFC11D1CCC4629C82),
        (50, 0xA0F27584C57955B7),
    ],
}


@pytest.mark.parametrize("nranks, scheme", sorted(PARENT_DIGESTS))
def test_shard_digests_match_the_parent_commit(nranks, scheme):
    """A checkpoint directory written before the broadcast kernel still
    verifies and resumes: every rank stores the same rows in the same
    order."""
    a, b = erdos_renyi(8, 0.5, seed=11), cycle(5)
    bounds = vertex_block_bounds(a.n * b.n, nranks)
    # 3 ranks split factor rows (bounds 14, 27), 4 ranks do not.
    assert bool(np.any(bounds % b.n)) == (nranks == 3)
    _, outs = generate_distributed(
        a, b, nranks, scheme=scheme, storage="source_block", chunk_size=25
    )
    got = [(len(o.edges), edges_digest(o.edges)) for o in outs]
    assert got == PARENT_DIGESTS[nranks, scheme]


def _rank_share(nranks: int):
    """Rank 0's 1-D share of a ~1e6-edge product, A rows in random order
    (as the ledger's 1-D workloads hand them out)."""
    a, b = erdos_renyi(80, 0.16, seed=5), erdos_renyi(80, 0.16, seed=6)
    rows = np.random.default_rng(5).permutation(a.edges)
    a = EdgeList(rows, a.n)
    assert a.m_directed * b.m_directed > 9e5
    return partition_edges_1d(a, nranks)[0], b, a.n * b.n


@pytest.mark.parametrize("nranks", [2, 3])
def test_full_kernel_peak_is_its_output(nranks):
    """No product-sized temporary: the tracemalloc peak of a rank's whole
    routed cell is within 10 % of the owner slices it returns."""
    part_a, b, n_c = _rank_share(nranks)
    tracemalloc.start()
    try:
        outs = kron_routed_full(part_a, b, nranks, n_c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out_bytes = sum(o.nbytes for o in outs)
    assert sum(map(len, outs)) == part_a.m_directed * b.m_directed
    assert peak <= 1.1 * out_bytes


def test_streaming_step_allocates_its_buckets_and_o_of_m_a():
    """One step of the streaming kernel allocates its own buckets plus
    per-A-edge bookkeeping (positions, windows), nothing per product edge."""
    part_a, b, n_c = _rank_share(2)
    nparts, chunk = 3, 40 * b.m_directed
    steps = iter_kron_product_routed(part_a, b, nparts, n_c, chunk)
    next(steps)  # builds the B plan, which every later step reuses
    tracemalloc.start()
    try:
        buckets = next(steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out_bytes = sum(blk.nbytes for blk in buckets)
    assert sum(map(len, buckets)) == 40 * b.m_directed
    # thresholds + positions: 2 (40, nparts + 1) int64 tables; per owner
    # a handful of 40-long index vectors.  A broadcast add into a strided
    # column takes numpy's fixed ufunc buffers (``getbufsize()`` elements
    # per operand), and Python objects a few KiB.
    per_a_edge = 8 * (2 * (nparts + 1) + 8 * nparts)
    fixed = 3 * 8 * np.getbufsize() + 4096
    assert peak <= out_bytes + 40 * per_a_edge + fixed

