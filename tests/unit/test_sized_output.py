"""One output per rank, sized from the factors.

Under ``source_block`` a factor pair's rows are counted before anything is
generated, so a rank allocates its stored output once: the routed kernel
writes the own-owner rows straight into their slot and every received
block is copied or decoded into its own.  These tests pin that no stack
is built on that path, that a block of the wrong size is refused before
it is written, and that the counts match what the kernel yields.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import generator, shuffle, spmd_run
from repro.distributed.comm import DelegatingCommunicator
from repro.distributed.generator import (
    GenerationPlan,
    KronPair,
    _Layout,
    generate_distributed,
)
from repro.distributed.shuffle import Slots, _land_in_slots
from repro.distributed.wire import encode_edges
from repro.errors import CommunicatorError, RankFailedError
from repro.graph import EdgeList, erdos_renyi
from repro.kronecker import id_dtype, kron_product
from repro.telemetry.session import NULL_TELEMETRY

PAIR = KronPair(erdos_renyi(9, 0.5, seed=3), erdos_renyi(6, 0.6, seed=4))

#: Every plan the routed kernel runs under: (scheme, pipeline, chunk).
ROUTED = [
    ("1d", "sync", 1 << 20),
    ("2d", "sync", 1 << 20),
    ("1d-pipelined", "sync", 7),
    ("1d-pipelined", "async", 7),
    ("1d-pipelined", "async", 40),
]


def _raise(*args, **kwargs):
    raise AssertionError("a routed rank built a stack")


class TestNoStackOnTheRoutedPath:
    @pytest.mark.parametrize("nranks", [2, 3, 5])
    @pytest.mark.parametrize("wire", ["raw", "varint"])
    @pytest.mark.parametrize("scheme,pipeline,chunk", ROUTED)
    def test_rows_land_in_one_output(
        self, monkeypatch, scheme, pipeline, chunk, wire, nranks
    ):
        monkeypatch.setattr(generator, "_stack", _raise)
        monkeypatch.setattr(shuffle, "_stack_received", _raise)
        got, outputs = generate_distributed(
            PAIR.a, PAIR.b, nranks, scheme=scheme, storage="source_block",
            chunk_size=chunk, pipeline=pipeline, wire=wire,
        )
        assert got == kron_product(PAIR.a, PAIR.b)
        assert {o.edges.dtype for o in outputs} == {id_dtype(PAIR.n)}


class _DropOneRow(DelegatingCommunicator):
    """Rank 0's exchange bucket for rank 1 loses its last row in flight."""

    def send(self, obj, dest, tag=0):
        if self.rank == 0 and dest == 1 and isinstance(obj, np.ndarray) and len(obj):
            obj = obj[:-1]
        super().send(obj, dest, tag)


class TestWrongSizeFailsClosed:
    def test_a_short_raw_block_fails_the_run(self):
        plan = GenerationPlan("1d", "source_block", source=PAIR)
        cells = plan.partition(2)
        expected = _Layout.of(plan, cells, 1, 1, id_dtype(PAIR.n)).recv[0, 0]
        assert expected > 0
        with pytest.raises(RankFailedError) as failure:
            spmd_run(
                generator.generate_rank, 2, plan, cells, wrap_comm=_DropOneRow
            )
        assert (
            f"round 0: sender 0 sent {expected - 1} rows, expected {expected}"
            in str(failure.value)
        )

    def test_a_forged_wire_header_is_refused_before_any_write(self):
        rows = np.array([[0, 1], [0, 2], [3, 1]], dtype=np.int32)
        block = encode_edges(rows).copy()
        # The header is the 4-byte magic, then the little-endian uint64
        # edge count: claim one row fewer than the block carries.
        block[4:12] = np.frombuffer(np.uint64(2).tobytes(), dtype=np.uint8)
        out = np.full((5, 2), -1, dtype=np.int32)
        slots = Slots(out, np.array([2, 3]), 4)
        own = out[:2]
        with pytest.raises(CommunicatorError, match=(
            "round 4: sender 1 sent 2 rows, expected 3"
        )):
            _land_in_slots([own, block], slots, NULL_TELEMETRY)
        assert (out == -1).all()


@st.composite
def factor(draw, max_n):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=12))
    ids = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(ids, ids), min_size=m, max_size=m))
    return EdgeList(np.array(pairs, dtype=np.int64).reshape(-1, 2), n)


def _rounds(plan, cells):
    return max(map(len, cells)) if plan.streams else 1


def _round_of(plan, i):
    return i if plan.streams else 0


class TestCountsMatchTheKernel:
    """The predicted per-(round, sender) counts are the bucket lengths the
    kernel yields, and the stored output is what per-round stacking of
    those buckets in source-rank order -- the layout before the output
    was sized ahead -- stores, row for row."""

    @given(
        a=factor(7),
        b=factor(6),
        nranks=st.integers(min_value=1, max_value=5),
        scheme=st.sampled_from(["1d", "1d-pipelined", "2d"]),
        # Below m_B splits nothing the routed kernel keeps whole; above
        # it a round holds several A-edges.
        chunk=st.sampled_from([1, 4, 13, 1 << 20]),
    )
    @settings(max_examples=80, deadline=None)
    def test_counts_and_rows(self, a, b, nranks, scheme, chunk):
        source = KronPair(a, b)
        plan = GenerationPlan(scheme, "source_block", chunk, source=source)
        cells = plan.partition(nranks)
        dtype = id_dtype(source.n)
        rounds = _rounds(plan, cells)
        _, outputs = generate_distributed(
            a, b, nranks, scheme=scheme, storage="source_block", chunk_size=chunk
        )
        assert {o.edges.dtype for o in outputs} == {dtype}
        if nranks == 1:
            assert source.owned_rows(plan, cells[0], 1, range(1)) is None
            assert np.array_equal(outputs[0].edges, kron_product(a, b).edges)
            return
        # rows[r][rnd][s]: what sender s's pieces of round rnd put in owner r.
        rows = [
            [[np.empty((0, 2), dtype)] * nranks for _ in range(rounds)]
            for _ in range(nranks)
        ]
        for s in range(nranks):
            pieces = source.pieces(plan, cells[s], nranks, NULL_TELEMETRY)
            for i, piece in enumerate(pieces):
                for r, bucket in enumerate(piece):
                    slot = rows[r][_round_of(plan, i)]
                    slot[s] = np.vstack([slot[s], bucket])
        for r, output in enumerate(outputs):
            layout = _Layout.of(plan, cells, r, rounds, dtype)
            lengths = [[len(blk) for blk in rnd] for rnd in rows[r]]
            assert layout.recv.tolist() == lengths
            want = np.vstack([np.empty((0, 2), dtype), *sum(rows[r], [])])
            assert np.array_equal(output.edges, want)
