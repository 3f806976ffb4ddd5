"""Unit tests for the KWR2 wire format (repro.distributed.wire)."""

import hashlib

import numpy as np
import pytest

from repro.distributed import generate_distributed
from repro.distributed.wire import (
    WIRE_MAGIC,
    decode_edges,
    encode_edges,
    is_wire_block,
)
from repro.errors import CommunicatorError, WireFormatError
from repro.graph.edgelist import EdgeList
from repro.kronecker.product import DEFAULT_CHUNK, iter_kron_product_routed
from repro.telemetry import TelemetrySession
from repro.util.hashing import edge_fingerprint
from tests.property.test_wire_codec import kwr2_reference

#: magic + uint64 edge count, run count, source-section bytes.
HEADER = 28


def header_fields(blk):
    """``(edges, runs, source bytes)`` as the block claims them."""
    return tuple(int(v) for v in blk[4:HEADER].view("<u8"))


def with_header(blk, edges=None, runs=None, source_bytes=None):
    """Copy of ``blk`` with some header fields rewritten."""
    old = header_fields(blk)
    new = [o if n is None else n for o, n in zip(old, (edges, runs, source_bytes))]
    out = blk.copy()
    out[4:HEADER] = np.array(new, dtype="<u8").view(np.uint8)
    return out


def uniform_graph(n, m, seed):
    """Uniform undirected graph with exactly ``m`` edges (the ledger's)."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    pick = rng.choice(len(iu), size=m, replace=False)
    return EdgeList(np.column_stack([iu[pick], ju[pick]]), n).symmetrized()


def lexsorted(edges):
    if not edges.size:
        return edges
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))]


def roundtrip(edges):
    return decode_edges(encode_edges(edges))


class TestRoundtrip:
    def test_small_block_sorted_output(self):
        e = np.array([[3, 1], [0, 5], [3, 0], [0, 2]], dtype=np.int64)
        got = roundtrip(e)
        assert np.array_equal(got, lexsorted(e))
        assert got.dtype == np.int64

    def test_empty(self):
        e = np.empty((0, 2), dtype=np.int64)
        got = roundtrip(e)
        assert got.shape == (0, 2)
        assert got.dtype == np.int64

    def test_single_edge(self):
        e = np.array([[123456789, 987654321]], dtype=np.int64)
        assert np.array_equal(roundtrip(e), e)

    def test_duplicates_preserved(self):
        e = np.repeat(np.array([[3, 3]], dtype=np.int64), 17, axis=0)
        assert np.array_equal(roundtrip(e), e)

    def test_int64_boundaries_via_lexsort_fallback(self):
        # Ids spanning more than 2**32 take the lexsort path; deltas wrap
        # mod 2**64 and must still roundtrip bit-exactly.
        e = np.array(
            [
                [-(2**63), 2**63 - 1],
                [2**63 - 1, -(2**63)],
                [0, -1],
                [-1, 0],
            ],
            dtype=np.int64,
        )
        assert np.array_equal(roundtrip(e), lexsorted(e))

    def test_just_past_packed_key_range(self):
        # An id span of 2**32 is the first whose pair key needs more than
        # 64 bits: the lexsort path, at its boundary and well past it.
        for rows in ([[2**32, 5], [0, 2**32 - 1]], [[2**32, 5], [4, 2**40 + 1]]):
            e = np.array(rows, dtype=np.int64)
            assert np.array_equal(roundtrip(e), lexsorted(e))

    @pytest.mark.parametrize("hi", [2, 128, 1 << 14, 1 << 21, 1 << 31])
    def test_random_blocks_all_varint_widths(self, hi):
        rng = np.random.default_rng(hi)
        e = rng.integers(0, hi, size=(257, 2), dtype=np.int64)
        assert np.array_equal(roundtrip(e), lexsorted(e))

    def test_encoder_does_not_mutate_input(self):
        rng = np.random.default_rng(3)
        e = rng.integers(0, 100, size=(50, 2), dtype=np.int64)
        orig = e.copy()
        encode_edges(e)
        assert np.array_equal(e, orig)

    def test_compresses_realistic_ids(self):
        rng = np.random.default_rng(9)
        e = rng.integers(0, 1600, size=(4096, 2), dtype=np.int64)
        assert encode_edges(e).nbytes < e.nbytes / 2

    def test_reencode_is_deterministic(self):
        rng = np.random.default_rng(11)
        e = rng.integers(0, 5000, size=(300, 2), dtype=np.int64)
        blk = encode_edges(e)
        assert np.array_equal(encode_edges(decode_edges(blk)), blk)

    def test_ledger_shaped_block_is_about_a_byte_an_edge(self):
        # One routed chunk of the gen_stream_* workloads: hundreds of rows
        # per source, so the source column all but vanishes and almost
        # every destination delta is one byte.
        a, b = uniform_graph(100, 990, 5), uniform_graph(100, 990, 6)
        # A in arrival order, as the ledger hands it over: both owners
        # get rows from every chunk.
        a = EdgeList(np.random.default_rng(5).permutation(a.edges), a.n)
        buckets = next(
            iter_kron_product_routed(a, b, 2, a.n * b.n, DEFAULT_CHUNK)
        )
        for bucket in buckets:
            assert len(bucket) > 100_000
            blk = encode_edges(bucket)
            assert blk.nbytes <= 1.25 * len(bucket)
            assert np.array_equal(decode_edges(blk), lexsorted(bucket))

    def test_source_column_is_one_pair_per_distinct_source(self):
        e = np.array([[7, 1], [7, 1], [7, 3], [9, 0]], dtype=np.int64)
        blk = encode_edges(e)
        assert header_fields(blk) == (4, 2, 4)
        # zigzag(7), run 3, zigzag(9 - 7), run 1 | zigzag(1, 0, 2, -3)
        assert blk[HEADER:].tolist() == [14, 3, 4, 1, 2, 0, 4, 5]

    def test_decode_into_out_slice(self):
        rng = np.random.default_rng(13)
        e = rng.integers(0, 1 << 20, size=(40, 2), dtype=np.int64)
        store = np.full((50, 2), -1, dtype=np.int64)
        got = decode_edges(encode_edges(e), out=store[5:45])
        assert np.shares_memory(got, store)
        assert np.array_equal(store[5:45], lexsorted(e))
        assert np.all(store[:5] == -1) and np.all(store[45:] == -1)

    def test_out_of_the_wrong_shape_is_a_caller_error(self):
        blk = encode_edges(np.array([[1, 2], [3, 4]], dtype=np.int64))
        with pytest.raises(ValueError, match="out="):
            decode_edges(blk, out=np.empty((3, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="out="):
            decode_edges(blk, out=np.empty((2, 2), dtype=np.uint64))

    def test_received_block_may_be_read_only(self):
        blk = encode_edges(np.array([[300, 70000], [2, 1]], dtype=np.int64))
        blk.flags.writeable = False
        frozen = blk.copy()
        assert np.array_equal(decode_edges(blk), [[2, 1], [300, 70000]])
        assert np.array_equal(blk, frozen)


class TestIsWireBlock:
    def test_accepts_encoded_block(self):
        assert is_wire_block(encode_edges(np.empty((0, 2), dtype=np.int64)))

    def test_rejects_raw_edge_block(self):
        assert not is_wire_block(np.zeros((8, 2), dtype=np.int64))

    def test_rejects_short_and_wrong_magic(self):
        assert not is_wire_block(np.frombuffer(WIRE_MAGIC, dtype=np.uint8))
        bad = encode_edges(np.empty((0, 2), dtype=np.int64)).copy()
        bad[0] ^= 0xFF
        assert not is_wire_block(bad)

    def test_rejects_non_arrays(self):
        assert not is_wire_block(WIRE_MAGIC + b"\x00" * 24)
        assert not is_wire_block(None)


class TestMalformed:
    def test_decode_requires_magic(self):
        with pytest.raises(WireFormatError):
            decode_edges(np.zeros(32, dtype=np.uint8))

    def test_retired_kwr1_magic_is_rejected_by_name(self):
        # A KWR1 block: magic, uint64 count, 2 * count varints.
        old = np.frombuffer(
            b"KWR1" + (1).to_bytes(8, "little") + bytes([2, 4]), dtype=np.uint8
        )
        assert not is_wire_block(old)
        with pytest.raises(WireFormatError, match="KWR1"):
            decode_edges(old)

    def test_truncated_stream(self):
        blk = encode_edges(np.array([[700, 900]], dtype=np.int64))
        with pytest.raises(WireFormatError):
            decode_edges(blk[:-1])

    def test_truncated_header(self):
        blk = encode_edges(np.array([[700, 900]], dtype=np.int64))
        with pytest.raises(WireFormatError):
            decode_edges(blk[: HEADER - 1])

    def test_trailing_bytes(self):
        blk = encode_edges(np.array([[1, 2]], dtype=np.int64))
        padded = np.concatenate([blk, np.zeros(1, dtype=np.uint8)])
        with pytest.raises(WireFormatError):
            decode_edges(padded)

    def test_trailing_bytes_after_empty(self):
        blk = encode_edges(np.empty((0, 2), dtype=np.int64))
        padded = np.concatenate([blk, np.zeros(2, dtype=np.uint8)])
        with pytest.raises(WireFormatError):
            decode_edges(padded)

    def test_stream_ends_mid_value(self):
        # A lone continuation byte never terminates: count mismatch.
        blk = encode_edges(np.array([[1, 2]], dtype=np.int64)).copy()
        blk[-1] |= 0x80
        with pytest.raises(WireFormatError):
            decode_edges(blk)

    def test_source_section_ends_mid_value(self):
        # The terminator count still matches (a spare one is supplied),
        # but the section's last byte continues into the destinations.
        blk = encode_edges(np.array([[1, 2]], dtype=np.int64))
        source = np.array([0, 2, 0x81], dtype=np.uint8)
        bad = np.concatenate([blk[:HEADER], source, blk[-1:]])
        with pytest.raises(WireFormatError, match="inside a value"):
            decode_edges(with_header(bad, source_bytes=3))

    def test_overlong_varint(self):
        # Eleven bytes for one value, every count consistent, in either
        # section.
        long = np.array([0x80] * 10 + [0], dtype=np.uint8)
        blk = encode_edges(np.array([[1, 2]], dtype=np.int64))
        source, dest = blk[HEADER : HEADER + 2], blk[HEADER + 2 :]
        for sections in (
            [np.concatenate([long, source[1:]]), dest],
            [source, long],
        ):
            bad = with_header(
                np.concatenate([blk[:HEADER], *sections]),
                source_bytes=len(sections[0]),
            )
            with pytest.raises(WireFormatError, match="longer than 10"):
                decode_edges(bad)

    @pytest.mark.parametrize("claimed", [0, 2, 7, 1 << 60, (1 << 64) - 1])
    def test_edge_count_must_match_the_destination_section(self, claimed):
        blk = encode_edges(np.arange(8, dtype=np.int64).reshape(4, 2))
        assert header_fields(blk)[0] == 4
        with pytest.raises(WireFormatError):
            decode_edges(with_header(blk, edges=claimed))

    @pytest.mark.parametrize("claimed", [0, 1, 5, 1 << 60, (1 << 64) - 1])
    def test_run_count_must_match_the_source_section(self, claimed):
        blk = encode_edges(np.arange(8, dtype=np.int64).reshape(4, 2))
        assert header_fields(blk)[1] == 4
        with pytest.raises(WireFormatError):
            decode_edges(with_header(blk, runs=claimed))

    @pytest.mark.parametrize("claimed", [0, 7, 9, 12, 13, 1 << 60])
    def test_source_section_length_must_match(self, claimed):
        blk = encode_edges(np.arange(8, dtype=np.int64).reshape(4, 2))
        assert header_fields(blk)[2] == 8
        with pytest.raises(WireFormatError):
            decode_edges(with_header(blk, source_bytes=claimed))

    @pytest.mark.parametrize(
        "lengths",
        [
            [0, 4],  # an empty run
            [1, 2],  # sums short of the edge count
            [2, 3],  # sums past it
            [4, 1 << 60],  # far past it
            [(1 << 64) - 1, 5],  # wraps to the edge count mod 2**64
        ],
    )
    def test_run_lengths_must_partition_the_edges(self, lengths):
        e = np.array([[1, 5], [1, 6], [2, 5], [2, 7]], dtype=np.int64)
        blk = encode_edges(e)
        assert header_fields(blk) == (4, 2, 4)
        source = []
        for code, length in zip((2, 2), lengths):
            source.append(code)
            while length >= 0x80:
                source.append((length & 0x7F) | 0x80)
                length >>= 7
            source.append(length)
        bad = np.concatenate(
            [blk[:HEADER], np.array(source, dtype=np.uint8), blk[HEADER + 4 :]]
        )
        with pytest.raises(WireFormatError, match="run lengths"):
            decode_edges(with_header(bad, source_bytes=len(source)))

    def test_runs_without_edges(self):
        empty = encode_edges(np.empty((0, 2), dtype=np.int64))
        bad = np.concatenate([empty, np.array([2, 1], dtype=np.uint8)])
        with pytest.raises(WireFormatError):
            decode_edges(with_header(bad, runs=1, source_bytes=2))

    def test_encode_rejects_bad_shape(self):
        with pytest.raises(WireFormatError):
            encode_edges(np.zeros((3, 3), dtype=np.int64))

    def test_wire_error_is_retryable_comm_error(self):
        # Supervised retry treats CommunicatorError as transient; a
        # corrupt block must ride the same path.
        assert issubclass(WireFormatError, CommunicatorError)


def ledger_factors():
    """The ledger's 100-vertex, 990-edge factors (seed 1, A in arrival order)."""
    a, b = uniform_graph(100, 990, 1), uniform_graph(100, 990, 2)
    return EdgeList(np.random.default_rng(1).permutation(a.edges), a.n), b


def ledger_buckets():
    """The routed buckets of one chunk of the ledger's seed-1 factors."""
    a, b = ledger_factors()
    return next(iter_kron_product_routed(a, b, 2, a.n * b.n, DEFAULT_CHUNK))


def assert_encodes_like_the_reference(edges):
    blk = encode_edges(edges)
    assert blk.tobytes() == kwr2_reference(edges)
    assert np.array_equal(decode_edges(blk), lexsorted(edges))
    return blk


class TestPinnedBytes:
    # sha256 of encode_edges on each bucket, as the KWR2 encoder before
    # the lane rewrite emitted them: the wire between versions is pinned.
    PINNED = [
        "4b78085f9f7584298256e868bcefaf52ed0410476a23eae8583389e1bfc39d6e",
        "cc6fad334b2c2655645eae9b82a7116627d6ef996ef0651705989ffdf7bb961d",
    ]

    def test_ledger_buckets_encode_to_the_pinned_bytes(self):
        buckets = ledger_buckets()
        assert [b.dtype for b in buckets] == [np.int32, np.int32]
        for bucket, digest in zip(buckets, self.PINNED):
            for dtype in (np.int32, np.int64):
                blk = encode_edges(bucket.astype(dtype))
                assert hashlib.sha256(blk.tobytes()).hexdigest() == digest

    def test_ledger_run_puts_the_pinned_byte_total_on_the_wire(self):
        """Both wires on two process ranks store one multiset, and the
        varint run's encoded buckets total the 2,160,042 bytes KWR2 has
        always put on the wire for these factors."""
        a, b = ledger_factors()
        digest, counters = {}, {}
        for wire in ("raw", "varint"):
            session = TelemetrySession()
            product, _ = generate_distributed(
                a, b, 2, scheme="1d-pipelined", pipeline="async", wire=wire,
                backend="process", telemetry=session,
            )
            digest[wire] = edge_fingerprint(product.edges)
            counters[wire] = session.aggregated_metrics()["counters"]
        assert digest["raw"] == digest["varint"], digest
        varint = counters["varint"]
        wire_bytes = varint["exchange.bytes_wire"]
        assert wire_bytes == varint["comm.alltoall.bytes_out"], varint
        assert wire_bytes == 2160042, wire_bytes

    def test_ledger_buckets_decode_into_an_int32_stack(self):
        for bucket in ledger_buckets():
            out = np.empty(bucket.shape, dtype=np.int32)
            decode_edges(encode_edges(bucket), out=out)
            assert np.array_equal(out, lexsorted(bucket))


class TestFailClosed:
    @pytest.mark.parametrize(
        "block",
        [
            np.array([[1.7, 2.2]]),
            np.array([["1", "2"]]),
            np.array([[True, False]]),
            np.array([[1, 2]], dtype=object),
        ],
        ids=["float", "str", "bool", "object"],
    )
    def test_non_integer_blocks_are_refused(self, block):
        with pytest.raises(WireFormatError, match="integer ids"):
            encode_edges(block)

    def test_list_of_floats_is_refused(self):
        with pytest.raises(WireFormatError):
            encode_edges([[1.7, 2.2]])

    @pytest.mark.parametrize("column", [0, 1])
    def test_unsigned_ids_past_int64_are_refused(self, column):
        e = np.array([[1, 2], [3, 4]], dtype=np.uint64)
        e[1, column] = 2**63
        with pytest.raises(WireFormatError, match="signed 64-bit"):
            encode_edges(e)

    def test_largest_unsigned_id_the_wire_carries(self):
        e = np.array([[2**63 - 1, 0], [5, 2**63 - 1]], dtype=np.uint64)
        blk = assert_encodes_like_the_reference(e)
        assert decode_edges(blk).tolist() == [[5, 2**63 - 1], [2**63 - 1, 0]]


def codes_block(code):
    """Two rows whose second destination code is exactly ``code``.

    Even codes are the delta ``code / 2``; odd ones the delta
    ``-(code + 1) / 2``, reached by dropping at a new source.
    """
    if code % 2 == 0:
        return np.array([[0, 0], [0, code // 2]], dtype=np.int64)
    return np.array([[0, (code + 1) // 2], [1, 0]], dtype=np.int64)


def varint_len(value):
    return max(1, -(-value.bit_length() // 7))


class TestLanes:
    @pytest.mark.parametrize("base", [0, -(2**31), 2**40])
    @pytest.mark.parametrize(
        "span", [2**16 - 1, 2**16, 2**32 - 1, 2**32], ids=lambda s: f"span{s}"
    )
    def test_key_width_boundaries(self, base, span):
        # Ids span 2**16 - 1 exactly fill a 32-bit key, 2**16 is one past
        # it; 2**32 - 1 fills a 64-bit key and 2**32 needs the lexsort.
        rng = np.random.default_rng(span)
        e = rng.integers(0, span, size=(300, 2), dtype=np.int64, endpoint=True)
        e[0] = 0, span
        e[1] = span, 0
        assert_encodes_like_the_reference(e + base)

    def test_int32_block_at_the_top_of_its_range(self):
        e = np.array([[0, 2**31 - 1], [2**31 - 1, 0], [7, 2**31 - 1]],
                     dtype=np.int32)
        blk = assert_encodes_like_the_reference(e)
        out = np.empty((3, 2), dtype=np.int32)
        assert np.array_equal(decode_edges(blk, out=out), lexsorted(e))

    def test_int64_block_one_past_int32(self):
        e = np.array([[0, 2**31], [1, 0]], dtype=np.int64)
        blk = assert_encodes_like_the_reference(e)
        with pytest.raises(WireFormatError, match="destination id 2147483648"):
            decode_edges(blk, out=np.empty((2, 2), dtype=np.int32))

    @pytest.mark.parametrize(
        "code",
        [0x7F, 0x80, 2**14 - 1, 2**14, 2**21, 2**28, 2**35],
        ids=hex,
    )
    def test_codes_at_every_byte_boundary(self, code):
        e = codes_block(code)
        blk = assert_encodes_like_the_reference(e)
        # The last varint of the block is the code itself.
        n = varint_len(code)
        leb = [(code >> 7 * i) & 0x7F | (0x80 if i < n - 1 else 0) for i in range(n)]
        assert blk[-n:].tolist() == leb
        assert blk[-n - 1] < 0x80
        for dtype in (np.int32, np.int64):
            if e.max() <= np.iinfo(dtype).max:
                out = np.empty((2, 2), dtype=dtype)
                assert np.array_equal(decode_edges(blk, out=out), e)

    @pytest.mark.parametrize("column", [0, 1])
    def test_ten_byte_varints(self, column):
        # A step of 2**62 is the code 2**63, ten bytes, in either column.
        e = np.zeros((2, 2), dtype=np.int64)
        e[1, column] = 2**62
        blk = assert_encodes_like_the_reference(e)
        ten = [0x80] * 9 + [0x01]
        assert ten in [
            blk[i : i + 10].tolist() for i in range(HEADER, blk.size - 9)
        ]

    def test_every_value_takes_more_than_one_byte(self):
        # Source 1000 (code 2000), a run of 200, destinations from 100 in
        # steps of 200 (codes 200 then 400): no one-byte value anywhere.
        e = np.column_stack(
            [np.full(200, 1000), 100 + 200 * np.arange(200)]
        ).astype(np.int32)
        blk = assert_encodes_like_the_reference(e)
        assert blk.size == HEADER + 2 * 2 + 2 * 200
        out = np.empty((200, 2), dtype=np.int32)
        assert np.array_equal(decode_edges(blk, out=out), e)

    def test_steps_wider_than_a_narrow_out_take_the_exact_sum(self):
        # Five-byte codes (steps of 2**30) into an int32 out: the exact
        # sum decodes ids that fit, and refuses one that wraps to 5.
        fits = np.array([[0, 0], [0, 2**30], [1, 0]], dtype=np.int64)
        blk = assert_encodes_like_the_reference(fits)
        out = np.empty((3, 2), dtype=np.int32)
        assert np.array_equal(decode_edges(blk, out=out), fits)
        wraps = np.array([[0, 0], [0, 2**32 + 5]], dtype=np.int64)
        blk = assert_encodes_like_the_reference(wraps)
        with pytest.raises(WireFormatError, match="4294967301"):
            decode_edges(blk, out=np.empty((2, 2), dtype=np.int32))

    def test_narrow_steps_climbing_past_int32_are_refused(self):
        # Four-byte codes (steps of 2**26) summed in int32 lanes: the id
        # that leaves the range wraps negative and the sign check sees it.
        dst = np.arange(40, dtype=np.int64) << 26
        e = np.column_stack([np.zeros(40, dtype=np.int64), dst])
        blk = assert_encodes_like_the_reference(e)
        with pytest.raises(WireFormatError, match="destination id"):
            decode_edges(blk, out=np.empty((40, 2), dtype=np.int32))
        assert np.array_equal(decode_edges(blk), e)

    @pytest.mark.parametrize(
        "row, what",
        [
            ([0, -1], "destination id -1"),
            ([-1, 0], "source id -1"),
            ([0, 2**31], "destination id 2147483648"),
            ([2**31, 0], "source id 2147483648"),
            ([0, -(2**40)], "destination id -1099511627776"),
        ],
    )
    def test_ids_outside_int32_are_refused(self, row, what):
        e = np.array([[0, 0], row], dtype=np.int64)
        blk = assert_encodes_like_the_reference(e)
        with pytest.raises(WireFormatError, match=what):
            decode_edges(blk, out=np.empty((2, 2), dtype=np.int32))
