"""Unit tests for the sort-free bucketing path and exchange hardening."""

import threading

import numpy as np
import pytest

from repro.distributed import shuffle
from repro.distributed.comm import Communicator
from repro.distributed.launcher import spmd_run
from repro.distributed.partition import (
    owners_by_vertex_block,
    vertex_block_bounds,
)
from repro.distributed.shuffle import (
    bucket_edges,
    counting_scatter,
    exchange_edges,
)
from repro.distributed.wire import encode_edges
from repro.errors import PartitionError, WireFormatError
from repro.telemetry import TelemetrySession


class TestCountingScatter:
    def test_matches_argsort_order_exactly(self):
        rng = np.random.default_rng(7)
        rows = rng.integers(0, 1000, size=(5000, 2), dtype=np.int64)
        owners = rng.integers(0, 11, size=5000, dtype=np.int64)
        got = counting_scatter(rows, owners, 11)
        order = np.argsort(owners, kind="stable")
        expect = np.split(
            rows[order], np.cumsum(np.bincount(owners, minlength=11))[:-1]
        )
        assert len(got) == 11
        for g, e in zip(got, expect):
            assert np.array_equal(g, e)

    def test_empty_input(self):
        got = counting_scatter(
            np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64), 4
        )
        assert len(got) == 4
        assert all(len(b) == 0 for b in got)

    def test_single_bucket(self):
        rows = np.arange(20, dtype=np.int64).reshape(-1, 2)
        (got,) = counting_scatter(rows, np.zeros(10, dtype=np.int64), 1)
        assert np.array_equal(got, rows)

    def test_wide_world_uses_int_fallback(self):
        # nparts beyond the 2-byte radix range still buckets correctly
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 100, size=(500, 2), dtype=np.int64)
        owners = rng.integers(0, 70000, size=500, dtype=np.int64)
        got = counting_scatter(rows, owners, 70000)
        assert sum(len(b) for b in got) == 500


class TestBucketEdges:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            bucket_edges(
                np.zeros((1, 2), dtype=np.int64), 2, n=4, method="quantum"
            )

    def test_methods_agree_both_schemes(self):
        rng = np.random.default_rng(11)
        edges = rng.integers(0, 300, size=(2000, 2), dtype=np.int64)
        for scheme in ("source_block", "edge_hash"):
            a = bucket_edges(edges, 5, scheme=scheme, n=300, method="argsort")
            s = bucket_edges(edges, 5, scheme=scheme, n=300, method="scatter")
            for x, y in zip(a, s):
                assert np.array_equal(x, y)


class TestVertexBlockBounds:
    @pytest.mark.parametrize("n,nparts", [(1, 1), (7, 3), (100, 7), (35, 35), (5, 8)])
    def test_bounds_invert_owner_map(self, n, nparts):
        bounds = vertex_block_bounds(n, nparts)
        assert bounds[0] == 0 and bounds[-1] == n
        assert np.all(np.diff(bounds) >= 0)
        v = np.arange(n, dtype=np.int64)
        owners = owners_by_vertex_block(v, n, nparts)
        # owner d's vertices are exactly [bounds[d], bounds[d+1])
        expect = np.searchsorted(bounds, v, side="right") - 1
        assert np.array_equal(owners, expect)

    def test_invalid(self):
        with pytest.raises(PartitionError):
            vertex_block_bounds(0, 3)
        with pytest.raises(PartitionError):
            vertex_block_bounds(3, 0)


class _FakeComm(Communicator):
    """Single-rank communicator whose exchange returns a canned list."""

    def __init__(self, canned):
        self._canned = canned

    @property
    def rank(self):
        return 0

    @property
    def size(self):
        return len(self._canned)

    def send(self, obj, dest, tag=0):  # pragma: no cover - unused
        raise AssertionError

    def recv(self, source, tag=0):  # pragma: no cover - unused
        raise AssertionError

    def barrier(self):  # pragma: no cover - unused
        return None

    def alltoall_start(self, objs):
        return None

    def alltoall_finish(self, request):
        return list(self._canned)


class TestExchangeEdgesDefensive:
    def test_skips_none_and_empty_blocks(self):
        good = np.array([[1, 2], [3, 4]], dtype=np.int64)
        incoming = [
            None,
            np.empty((0, 2), dtype=np.int64),
            np.empty(0, dtype=np.int64),  # flat empty, wrong shape
            good,
        ]
        comm = _FakeComm(incoming)
        out = exchange_edges(comm, [None] * 4)
        assert np.array_equal(out, good)

    def test_all_empty(self):
        comm = _FakeComm([None, np.empty((0, 2), dtype=np.int64)])
        out = exchange_edges(comm, [None, None])
        assert out.shape == (0, 2)
        assert out.dtype == np.int64

    def test_flat_block_reshaped(self):
        # a backend handing back a flattened buffer still round-trips
        comm = _FakeComm([np.array([5, 6, 7, 8], dtype=np.int64)])
        out = exchange_edges(comm, [None])
        assert np.array_equal(out, [[5, 6], [7, 8]])

    def test_result_is_owned_copy(self):
        shared = np.array([[1, 1]], dtype=np.int64)
        shared.flags.writeable = False  # simulate a zero-copy buffer
        comm = _FakeComm([shared, shared])
        out = exchange_edges(comm, [None, None])
        assert out.flags.writeable
        out[0, 0] = 9  # must not raise

    def test_wire_blocks_decode_into_the_same_stack(self):
        # Raw, encoded, narrow-dtype and empty buckets in one round: one
        # stack, source-rank order, received buffers untouched.
        first = np.array([[9, 1], [2, 7]], dtype=np.int64)
        second = np.array([[500, 3], [4, 70000], [4, 1]], dtype=np.int64)
        narrow = np.array([[6, 5]], dtype=np.int32)
        incoming = [first, encode_edges(second), None, narrow]
        for blk in incoming:
            if blk is not None:
                blk.flags.writeable = False
        frozen = [None if blk is None else blk.copy() for blk in incoming]
        out = exchange_edges(_FakeComm(incoming), [None] * 4)
        assert out.dtype == np.int64 and out.flags.writeable
        assert np.array_equal(
            out, [[9, 1], [2, 7], [4, 1], [4, 70000], [500, 3], [6, 5]]
        )
        for blk, was in zip(incoming, frozen):
            assert blk is None or np.array_equal(blk, was)

    def test_corrupt_wire_block_is_a_wire_format_error(self):
        blk = encode_edges(np.array([[1, 2], [3, 4]], dtype=np.int64))
        blk[4] = 200  # claims more edges than the block has bytes
        with pytest.raises(WireFormatError):
            exchange_edges(_FakeComm([blk]), [None])


class _EncodeSpy:
    """Counts ``encode_edges`` calls per calling thread.

    Installed on ``shuffle`` before the world starts: thread ranks share
    it and are told apart by thread id, forked ranks each inherit a copy.
    """

    def __init__(self):
        self.rows = {}

    def __call__(self, edges):
        self.rows.setdefault(threading.get_ident(), []).append(len(edges))
        return encode_edges(edges)

    def here(self):
        return list(self.rows.get(threading.get_ident(), []))


def _bucket(src, n=5):
    """``n`` rows from ``src`` in *descending* order, so a sort shows."""
    return np.array([[src, n - i] for i in range(n)], dtype=np.int64)


def _exchange_twice(comm, spy):
    calls, received = [], []
    for rnd in range(2):
        outgoing = [
            _bucket(1000 * rnd + 100 * comm.rank + dest)
            for dest in range(comm.size)
        ]
        before = len(spy.here())
        received.append(exchange_edges(comm, outgoing, wire="varint"))
        calls.append(spy.here()[before:])
    return calls, received


class TestOwnBucketBypassesCodec:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_only_travelling_buckets_are_encoded(self, backend, monkeypatch):
        spy = _EncodeSpy()
        monkeypatch.setattr(shuffle, "encode_edges", spy)
        size = 3
        session = TelemetrySession()
        results = spmd_run(
            _exchange_twice, size, spy, backend=backend, telemetry=session
        )
        for rank, (calls, received) in enumerate(results):
            for rnd in range(2):
                # size - 1 encodes an exchange: one per peer, none for self.
                assert calls[rnd] == [5] * (size - 1)
                expect = []
                for source in range(size):
                    rows = _bucket(1000 * rnd + 100 * source + rank)
                    # Peers' rows come back sorted by the codec; the own
                    # bucket in the order it was produced.
                    expect.append(rows if source == rank else rows[::-1])
                assert np.array_equal(received[rnd], np.vstack(expect))
        counters = session.aggregated_metrics()["counters"]
        crossing = 2 * size * (size - 1)  # buckets that left their rank
        assert counters["exchange.bytes_raw"] == crossing * 5 * 16
        assert counters["exchange.bytes_wire"] == counters["comm.alltoall.bytes_out"]
        assert counters["comm.alltoall.bytes_out"] == counters["comm.alltoall.bytes_in"]
        assert 0 < counters["exchange.bytes_wire"] < counters["exchange.bytes_raw"]

    def test_nothing_crossing_counts_nothing(self):
        def rank_program(comm):
            outgoing = [None] * comm.size
            outgoing[comm.rank] = _bucket(comm.rank)
            return exchange_edges(comm, outgoing, wire="varint")

        session = TelemetrySession()
        results = spmd_run(rank_program, 3, telemetry=session)
        for rank, got in enumerate(results):
            assert np.array_equal(got, _bucket(rank))
        counters = session.aggregated_metrics()["counters"]
        for name in ("exchange.bytes_raw", "exchange.bytes_wire",
                     "comm.alltoall.bytes_out", "comm.alltoall.bytes_in"):
            assert not counters.get(name)
