"""``edge_hash`` rounds bucketed chunk by chunk: row order, memory, spans.

The generator hashes and scatters every dense chunk where it is produced
instead of collecting the round and bucketing it once.  Shard digests,
run keys and resume all depend on the stored *row order*, so this file
pins it against the whole-product spelling -- ``bucket_edges`` of
everything a rank generates, then the exchange's source-rank stacking --
and against digests computed at the commit before the change.
"""

import tracemalloc

import numpy as np
import pytest

from repro.distributed import (
    GenerationPlan,
    KronPair,
    bucket_edges,
    edges_digest,
    generate_distributed,
)
from repro.distributed.partition import partition_edges_1d, partition_edges_2d
from repro.graph import EdgeList
from repro.graph.generators import clique, cycle, erdos_renyi
from repro.kronecker.product import iter_kron_product, kron_product
from repro.skg.distributed import generate_skg_distributed
from repro.skg.model import SKGSpec
from repro.skg.sample import skg_sampler
from repro.telemetry import TelemetrySession

SPEC = SKGSpec.from_library("polblogs", k=6, skg_seed=3)
#: 1024 candidates: ``chunk_size=1`` is a round per candidate.
SMALL_SPEC = SKGSpec.from_library("polblogs", k=5, skg_seed=3)
_EMPTY = np.empty((0, 2), dtype=np.int64)


def _stack(blocks):
    return np.vstack([_EMPTY, *blocks])


def factor_cells(pair, scheme, nranks):
    """Per rank, the ``(A part, B part)`` cells of ``scheme``."""
    if scheme == "2d":
        return partition_edges_2d(pair.a, pair.b, nranks)
    return [[(a, pair.b)] for a in partition_edges_1d(pair.a, nranks)]


def expected_stored(source, nranks, scheme, chunk):
    """Per-rank stored blocks, spelled the whole-product way.

    One round holds everything a rank generates (its cells in order, the
    serial product of each; for SKG its sampled chunk ranges in order)
    for the batch schemes and one ``iter_kron_product`` chunk (one
    sampled range) for ``1d-pipelined``; a round is bucketed whole with
    ``bucket_edges`` and rank ``d`` stores, round after round, bucket
    ``d`` of ranks ``0..P-1`` in that order.
    """
    plan = GenerationPlan(scheme, "edge_hash", chunk, source=source)

    per_rank_rounds = []
    if isinstance(source, SKGSpec):
        sampler = skg_sampler(source)
        for cells in plan.partition(nranks):
            blocks = [sampler.sample(start, stop) for start, stop in cells]
            per_rank_rounds.append(blocks if plan.streams else [_stack(blocks)])
    else:
        for cells in factor_cells(source, scheme, nranks):
            if plan.streams:
                blocks = [
                    block
                    for part_a, part_b in cells
                    for block in iter_kron_product(part_a, part_b, chunk)
                ]
            else:
                blocks = [kron_product(pa, pb).edges for pa, pb in cells]
            per_rank_rounds.append(blocks if plan.streams else [_stack(blocks)])
    if nranks == 1:
        return [_stack(per_rank_rounds[0])]
    stored = [[] for _ in range(nranks)]
    for rnd in range(max(len(r) for r in per_rank_rounds)):
        for rounds in per_rank_rounds:
            if rnd < len(rounds):
                buckets = bucket_edges(
                    rounds[rnd], nranks, scheme="edge_hash", n=source.n
                )
                for d in range(nranks):
                    stored[d].append(buckets[d])
    return [_stack(blocks) for blocks in stored]


class TestRowOrderIsPinned:
    """Not only the multiset: every stored block, row for row."""

    A, B = erdos_renyi(7, 0.5, seed=5), cycle(6)
    M_B = B.m_directed

    @pytest.mark.parametrize("scheme", ["1d", "2d", "1d-pipelined"])
    @pytest.mark.parametrize("chunk", [1, 7, M_B - 1, M_B, 1 << 20])
    @pytest.mark.parametrize("nranks", [1, 2, 3, 5])
    def test_exact(self, scheme, chunk, nranks):
        _, outs = generate_distributed(
            self.A, self.B, nranks,
            scheme=scheme, storage="edge_hash", chunk_size=chunk,
        )
        expect = expected_stored(
            KronPair(self.A, self.B), nranks, scheme, chunk
        )
        for out, rows in zip(outs, expect):
            assert np.array_equal(out.edges, rows), (out.rank, scheme, chunk)

    @pytest.mark.parametrize("scheme", ["1d", "2d", "1d-pipelined"])
    @pytest.mark.parametrize("chunk", [1, 7, "m_b-1", "m_b", 1 << 20])
    @pytest.mark.parametrize("nranks", [1, 2, 3, 5])
    def test_skg(self, scheme, chunk, nranks):
        if isinstance(chunk, str):
            # The row count of the spec's old stand-in factor B,
            # complete with loops on 2**(k - k // 2) vertices.
            m_b = 4 ** (SMALL_SPEC.k - SMALL_SPEC.k // 2)
            chunk = m_b - (chunk == "m_b-1")
        _, outs = generate_skg_distributed(
            SMALL_SPEC, nranks, scheme=scheme, storage="edge_hash", chunk_size=chunk,
        )
        expect = expected_stored(SMALL_SPEC, nranks, scheme, chunk)
        assert sum(len(rows) for rows in expect) > 0
        for out, rows in zip(outs, expect):
            assert np.array_equal(out.edges, rows), (out.rank, scheme, chunk)

    def test_shard_digests_match_the_parent_commit(self):
        """Hard-coded from the commit before per-chunk bucketing: a
        checkpoint directory written then still verifies and resumes.
        The SKG shards are pinned from the first grass-hopping sampler
        (spec digest ``skg-spec-v2``), whose sample differs by design."""
        a, b = clique(5), cycle(7)

        def digests(outs):
            return [(len(o.edges), edges_digest(o.edges)) for o in outs]

        _, outs = generate_distributed(
            a, b, 3, scheme="2d", storage="edge_hash", chunk_size=7
        )
        assert digests(outs) == [
            (106, 0x5AE574E321FA59AA),
            (72, 0x9ED41917C29568BB),
            (102, 0x455616D879744808),
        ]
        _, outs = generate_distributed(
            a, b, 3, scheme="1d-pipelined", storage="edge_hash", chunk_size=7
        )
        assert digests(outs) == [
            (106, 0x58FDBF9EC183645C),
            (72, 0x37D49958FF17D562),
            (102, 0x907FF8CE7C2831DC),
        ]
        _, outs = generate_skg_distributed(
            SPEC, 3, scheme="2d", storage="edge_hash", chunk_size=7
        )
        assert digests(outs) == [
            (70, 0xAB5FD0CB5EC1FA26),
            (86, 0x0EDE3E735760F330),
            (120, 0x472D4F5AFB55C8BD),
        ]


class TestRouteSpans:
    """Aim 4: the routing time stays visible after the bucket step moved."""

    def test_one_scatter_span_per_chunk_nested_in_generate(self):
        a, b = erdos_renyi(9, 0.4, seed=131), cycle(7)
        chunk = 3 * b.m_directed
        session = TelemetrySession()
        generate_distributed(
            a, b, 2, scheme="2d", storage="edge_hash", chunk_size=chunk,
            telemetry=session,
        )
        cells_2d = factor_cells(KronPair(a, b), "2d", 2)
        for snap, cells in zip(session.ranks, cells_2d):
            spans = [e for e in snap.events if e.ph == "X"]
            routes = [e for e in spans if e.name == "route"]
            (generate,) = [e for e in spans if e.name == "generate"]
            chunks = sum(
                1 for pa, pb in cells for _ in iter_kron_product(pa, pb, chunk)
            )
            assert len(routes) == chunks > 1
            for route in routes:
                assert route.args["method"] == "scatter"
                assert generate.ts <= route.ts
                assert route.ts + route.dur <= generate.ts + generate.dur
            # Inclusive totals: the route time is inside the generate time,
            # never beside it.
            assert sum(r.dur for r in routes) <= generate.dur

    def test_routed_plans_keep_their_fused_span(self):
        session = TelemetrySession()
        generate_distributed(
            clique(4), cycle(5), 2, storage="source_block", telemetry=session
        )
        for snap in session.ranks:
            routes = [e for e in snap.events if e.name == "route"]
            assert [e.args["method"] for e in routes] == ["fused"]


class TestMemory:
    def test_two_rank_hash_round_peaks_under_3_2x_the_product(self):
        """The ledger's ``gen_hash_2d`` shape at a quarter of its rows.

        Parent commit: 4.0x on the ledger shape and 5.0x on this one
        (dense copy of the round + its sorted copy + product-sized hash
        temporaries); 2.8x now -- a rank holds its scattered chunks and
        their per-owner stack, and the hash works in tiles.
        """
        def factor(n, m, seed):
            rows = np.random.default_rng(seed).integers(0, n, (m, 2))
            return EdgeList(rows, n).symmetrized()

        a, b = factor(140, 520, 1), factor(140, 520, 2)
        product_bytes = a.m_directed * b.m_directed * 16
        assert product_bytes > 10 * (1 << 20)  # chunks, tiles: all in play
        tracemalloc.start()
        try:
            c, _outs = generate_distributed(
                a, b, 2, scheme="2d", storage="edge_hash", backend="thread"
            )
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert c.m_directed == a.m_directed * b.m_directed
        assert peak <= 3.2 * product_bytes, peak / product_bytes
