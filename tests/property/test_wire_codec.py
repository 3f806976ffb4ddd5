"""Property: the varint wire codec is lossless on arbitrary edge blocks.

``decode(encode(block))`` must equal the lexsorted input bit-exactly for
*any* ``(m, 2)`` int64 block -- including adversarial values at the
int64 boundaries, where the delta arithmetic wraps mod 2**64, and ids
whose span no longer fits a 64-bit key, where the encoder sorts with
``lexsort`` instead of one packed key.  Re-encoding a decoded block must
also reproduce the identical byte stream (the format is canonical), and
blocks with realistically small ids must actually compress.

The bytes themselves are pinned too: :func:`kwr2_reference`, a scalar
encoder written from the layout alone, must agree with
:func:`encode_edges` byte for byte on blocks of every integer dtype.

The decoder's input is outside bytes: whatever is done to an encoded
block -- bits flipped, bytes cut or appended, header fields and run
lengths rewritten -- it must hand back a well-formed ``(m, 2)`` int64
array or raise ``WireFormatError``, and never allocate more than a
constant multiple of the bytes it was given.  The same holds when it
decodes into an ``int32`` ``out=`` (the exchange's id stack): a
well-formed block whose ids do not fit is a ``WireFormatError``, never a
wrapped id.
"""

import itertools
import struct
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.distributed.wire import decode_edges, encode_edges
from repro.errors import WireFormatError

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

#: Mix of boundary-hugging and ordinary ids: hypothesis shrinks toward
#: the first strategy, so extremes stay well represented.
vertex_ids = st.one_of(
    st.sampled_from(
        [INT64_MIN, INT64_MIN + 1, -1, 0, 1, 2**32 - 1, 2**32, INT64_MAX]
    ),
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
)

edge_blocks = hnp.arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(min_value=0, max_value=64), st.just(2)),
    elements=vertex_ids,
)


def lexsorted(edges):
    if not edges.size:
        return edges
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))]


def _leb128(value):
    out = bytearray()
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return out


def _zigzag(delta):
    """64-bit zigzag code of a difference of two int64 ids, mod 2**64."""
    delta = (delta + 2**63) % 2**64 - 2**63
    return ((delta << 1) ^ (delta >> 63)) % 2**64


def kwr2_reference(edges):
    """KWR2 bytes of an integer block, one scalar at a time."""
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    rows = [(int(s), int(d)) for s, d in edges[order]]
    source, dest = bytearray(), bytearray()
    prev_src = prev_dst = runs = 0
    for src, run in itertools.groupby(rows, key=lambda row: row[0]):
        run = list(run)
        source += _leb128(_zigzag(src - prev_src)) + _leb128(len(run))
        prev_src, runs = src, runs + 1
        for _, dst in run:
            dest += _leb128(_zigzag(dst - prev_dst))
            prev_dst = dst
    header = b"KWR2" + struct.pack("<QQQ", len(rows), runs, len(source))
    return header + source + dest


ID_DTYPES = [
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
    ">i4", ">u8",  # ids are read by value, whatever the byte order
]


@st.composite
def typed_blocks(draw):
    """A block of one integer dtype, ids hugging that dtype's ends and
    2**31 / 2**63 where it holds them (uint64 up to 2**63 - 1: the wire
    carries signed ids)."""
    dtype = np.dtype(draw(st.sampled_from(ID_DTYPES)))
    info = np.iinfo(dtype)
    lo, hi = int(info.min), min(int(info.max), INT64_MAX)
    near = [lo, lo + 1, -1, 0, 1, 2**31 - 1, 2**31, 2**63 - 1, hi - 1, hi]
    ids = st.one_of(
        st.sampled_from([v for v in near if lo <= v <= hi]),
        st.integers(min_value=lo, max_value=hi),
    )
    return draw(
        hnp.arrays(
            dtype=dtype,
            shape=st.tuples(st.integers(min_value=0, max_value=64), st.just(2)),
            elements=ids,
        )
    )


class TestCodecBytes:
    @given(edges=typed_blocks())
    @settings(max_examples=300, deadline=None)
    def test_bytes_are_the_reference_encoders(self, edges):
        assert encode_edges(edges).tobytes() == kwr2_reference(edges)

    @given(edges=typed_blocks())
    @settings(max_examples=100, deadline=None)
    def test_bytes_do_not_depend_on_the_id_dtype(self, edges):
        wide = encode_edges(edges.astype(np.int64))
        np.testing.assert_array_equal(encode_edges(edges), wide)


class TestCodecRoundtrip:
    @given(edges=edge_blocks)
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_is_lexsorted_input(self, edges):
        got = decode_edges(encode_edges(edges))
        np.testing.assert_array_equal(got, lexsorted(edges))
        assert got.dtype == np.int64

    @given(edges=edge_blocks)
    @settings(max_examples=100, deadline=None)
    def test_reencode_is_canonical(self, edges):
        blk = encode_edges(edges)
        np.testing.assert_array_equal(encode_edges(decode_edges(blk)), blk)

    @given(
        m=st.integers(min_value=64, max_value=512),
        hi=st.integers(min_value=2, max_value=1 << 20),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_small_ids_compress(self, m, hi, seed):
        # The regime the exchange actually sees: Kronecker vertex ids
        # bounded by the product size.  Sorted deltas of 2**20-bounded
        # ids need at most 6 varint bytes per edge vs 16 raw.
        rng = np.random.default_rng(seed)
        edges = rng.integers(0, hi, size=(m, 2), dtype=np.int64)
        assert encode_edges(edges).nbytes < edges.nbytes


# --------------------------------------------------------------------- #
# hostile blocks
# --------------------------------------------------------------------- #
HEADER = 28  # magic + uint64 edge count, run count, source-section bytes

#: Counts a forged header may claim: small ones near the truth, and ones
#: that would be ruinous as an allocation size.
claimed_counts = st.one_of(
    st.integers(min_value=0, max_value=200),
    st.sampled_from([1 << 31, 1 << 32, 1 << 60, (1 << 63) - 1, (1 << 64) - 1]),
)


def _varints(values):
    out = bytearray()
    for v in values:
        while v >= 0x80:
            out.append((v & 0x7F) | 0x80)
            v >>= 7
        out.append(v)
    return np.frombuffer(bytes(out), dtype=np.uint8)


@st.composite
def mutated_blocks(draw):
    """An encoded block after a few hostile edits."""
    edges = draw(edge_blocks)
    blk = encode_edges(edges).copy()
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        edit = draw(
            st.sampled_from(["flip", "cut", "extend", "header", "runs"])
        )
        if edit == "flip":
            at = draw(st.integers(min_value=0, max_value=blk.size - 1))
            blk[at] ^= 1 << draw(st.integers(min_value=0, max_value=7))
        elif edit == "cut":
            blk = blk[: draw(st.integers(min_value=0, max_value=blk.size))]
        elif edit == "extend":
            tail = draw(st.binary(min_size=1, max_size=16))
            blk = np.concatenate([blk, np.frombuffer(tail, dtype=np.uint8)])
        elif edit == "header" and blk.size >= HEADER:
            field = draw(st.integers(min_value=0, max_value=2))
            blk[4 + 8 * field : 12 + 8 * field] = np.frombuffer(
                draw(claimed_counts).to_bytes(8, "little"), dtype=np.uint8
            )
        elif edit == "runs" and blk.size >= HEADER:
            # A well-formed source section whose run lengths are forged:
            # zero, short of, or far past the edge count.
            runs = draw(st.integers(min_value=0, max_value=6))
            pairs = []
            for _ in range(runs):
                pairs += [
                    draw(st.integers(min_value=0, max_value=300)),
                    draw(claimed_counts),
                ]
            old = int(blk[20:HEADER].view("<u8")[0])
            source = _varints(pairs)
            blk = np.concatenate(
                [blk[:HEADER], source, blk[HEADER + min(old, blk.size) :]]
            )
            blk[12:HEADER] = np.array(
                [runs, source.size], dtype="<u8"
            ).view(np.uint8)
        if blk.size == 0:
            break
    return blk


def decode_in_bounded_memory(blk, out=None):
    """``decode_edges(blk, out)``, or ``None`` on ``WireFormatError``; any
    other exception propagates.  Asserts the allocation bound on the way
    (``out``, allocated by the caller, is not counted)."""
    tracemalloc.start()
    try:
        try:
            got = decode_edges(blk, out)
        except WireFormatError:
            got = None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * blk.size + (1 << 20)
    return got


class TestHostileBlocks:
    @given(blk=mutated_blocks())
    @settings(max_examples=600, deadline=None)
    def test_valid_array_or_wire_format_error_in_bounded_memory(self, blk):
        blk.flags.writeable = False
        got = decode_in_bounded_memory(blk)
        if got is not None:
            assert got.dtype == np.int64
            assert got.ndim == 2 and got.shape[1] == 2
            # Every edge it hands back was paid for with a byte at least.
            assert len(got) <= blk.size - HEADER

    @given(
        m=st.integers(min_value=1, max_value=4000),
        hi=st.sampled_from([50, 1 << 13, 1 << 31, 1 << 62]),
        claimed=claimed_counts,
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_forged_edge_count_allocates_nothing_it_claims(
        self, m, hi, claimed, seed
    ):
        rng = np.random.default_rng(seed)
        edges = rng.integers(0, hi, size=(m, 2), dtype=np.int64)
        blk = encode_edges(edges)
        if claimed != m:
            blk[4:12] = np.frombuffer(
                claimed.to_bytes(8, "little"), dtype=np.uint8
            )
        got = decode_in_bounded_memory(blk)
        assert (got is None) == (claimed != m)

    @given(
        m=st.integers(min_value=1, max_value=4000),
        seed=st.integers(min_value=0, max_value=2**16),
        column=st.sampled_from([0, 1]),
        past=st.sampled_from([1 << 31, (1 << 31) + 1, 1 << 40, -1]),
    )
    @settings(max_examples=60, deadline=None)
    def test_ids_past_a_narrow_out_are_a_typed_error(
        self, m, seed, column, past
    ):
        # A well-formed KWR2 block, every id but one below 2**31: the
        # int32 out= the exchange stacks into must refuse it rather than
        # wrap the id, and an int64 out= decodes it exactly.
        rng = np.random.default_rng(seed)
        edges = rng.integers(0, 1 << 31, size=(m, 2), dtype=np.int64)
        edges[rng.integers(m), column] = past
        blk = encode_edges(edges)
        narrow = np.empty((m, 2), dtype=np.int32)
        assert decode_in_bounded_memory(blk, narrow) is None
        wide = decode_in_bounded_memory(blk, np.empty((m, 2), dtype=np.int64))
        np.testing.assert_array_equal(wide, lexsorted(edges))

    @given(
        m=st.integers(min_value=1, max_value=4000),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_ids_up_to_2_31_minus_1_fill_a_narrow_out(self, m, seed):
        rng = np.random.default_rng(seed)
        edges = rng.integers(0, 1 << 31, size=(m, 2), dtype=np.int64)
        edges[0] = (1 << 31) - 1, 0
        narrow = np.empty((m, 2), dtype=np.int32)
        got = decode_in_bounded_memory(encode_edges(edges), narrow)
        assert got is narrow
        np.testing.assert_array_equal(got, lexsorted(edges))
