"""Columnar run-length + delta varint wire format for edge blocks (``KWR2``).

The exchange stage ships ``(m, 2)`` edge blocks between ranks in the
product's id dtype (:func:`repro.kronecker.product.id_dtype`) -- 8 bytes
per edge under ``int32`` ids, 16 under ``int64``, regardless of how
small the ids actually are.  The paper's deployment compresses its edge
streams before the wire; we do the same, one column at a time:

1. **Sort** the block lexicographically by ``(src, dst)``.  Sorting is
   free for correctness -- every consumer of exchanged edges treats a
   block as a multiset -- and it is what makes both columns cheap: the
   source column collapses into runs and consecutive destinations are
   near-equal.
2. **Source column**: one ``(delta to the previous distinct source, run
   length)`` pair per *distinct* source, the first delta taken from 0.
   A Kronecker bucket repeats each source hundreds of times, so this
   column is a rounding error next to
3. the **destination column**: one delta per edge against the previous
   row's destination (from 0), which drops at every run boundary, so
4. deltas are **zigzag-mapped** to unsigned (``0,-1,1,-2,...`` ->
   ``0,1,2,3,...``) and everything is
5. **LEB128 varint-encoded**: 7 payload bits per byte, high bit =
   continuation.

Everything is vectorized numpy.  The varint routine sizes every value
once, writes all first bytes with one scatter at the ``cumsum`` of the
lengths, and its later passes visit only the shrinking index set of
values that still have bytes left (on exchange traffic: a few percent
after the first pass); the decoder finds value boundaries from the
continuation bits with one ``flatnonzero`` and gathers the same way.

The encoded payload is a ``uint8`` ndarray (not ``bytes``) so it rides
the process backend's zero-copy arena path and is counted by
``payload_nbytes`` like any other array.  Layout (integers little
endian)::

    [0:4]      magic b"KWR2"
    [4:12]     uint64  m, edge count
    [12:20]    uint64  r, run count (distinct sources)
    [20:28]    uint64  s, byte length of the source section
    [28:28+s]  source section: 2r varints,
               zigzag(src_0 - 0), len_0, zigzag(src_1 - src_0), len_1, ...
    [28+s:]    destination section: m varints,
               zigzag(dst_0 - 0), zigzag(dst_1 - dst_0), ...

All arithmetic is mod 2**64: deltas and the decoder's cumulative sums
wrap identically, so any int64 input -- including the full boundary
range -- roundtrips bit-exactly.  Narrower integer blocks are encoded by
value, so a block encodes to the same bytes whatever its id dtype; the
decoder writes ``int64`` rows, or rows of a narrower ``out=`` after
checking every decoded id fits it.

Every header field and every run length is outside input to the
decoder.  :func:`decode_edges` counts the terminator bytes of a section
(an allocation sized by the bytes actually present) before it believes
a claimed count, so nothing is ever allocated from a claim and peak
memory is a constant multiple of ``len(block)``; any block it cannot
account for byte for byte raises :class:`~repro.errors.WireFormatError`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WireFormatError

__all__ = [
    "WIRE_MAGIC",
    "encode_edges",
    "decode_edges",
    "is_wire_block",
]

#: First bytes of every encoded block; versioned so a future layout can
#: change the tail without being mistaken for this one.
WIRE_MAGIC = b"KWR2"

_HEADER = len(WIRE_MAGIC) + 3 * 8  # magic + uint64 edges, runs, source bytes
#: A 64-bit value needs at most ceil(64/7) = 10 varint bytes.
_MAX_VARINT_LEN = 10


def _zigzag(values: np.ndarray) -> np.ndarray:
    """Map uint64-viewed deltas so small magnitudes get small codes."""
    # Arithmetic shift by 63 smears the sign bit: 0 or -1, i.e. the
    # zigzag sign mask once viewed unsigned.
    sign = (values.view(np.int64) >> np.int64(63)).view(np.uint64)
    sign ^= values << np.uint64(1)
    return sign


def _unzigzag(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_zigzag`, in place on a uint64 vector."""
    sign = values & np.uint64(1)
    np.negative(sign, out=sign)  # 0 or all ones, mod 2**64
    values >>= np.uint64(1)
    values ^= sign
    return values


def _delta_codes(column: np.ndarray) -> np.ndarray:
    """Zigzag codes of a uint64 column's deltas (first against 0)."""
    deltas = column.copy()
    deltas[1:] -= column[:-1]
    return _zigzag(deltas)


def _varint_encode(values: np.ndarray) -> np.ndarray:
    """LEB128-encode a uint64 vector into one uint8 stream."""
    n = values.shape[0]
    if n == 0 or int(values.max()) < 0x80:
        # Every value fits in 7 bits: the stream is just the values.
        return values.astype(np.uint8)
    # Size every value once.  ``longer[j - 1]`` indexes the values that
    # have a byte ``j``; each is a subset of the one before and on
    # exchange traffic the first is already a few percent of the
    # stream, so the ten-pass worst case costs little.
    lengths = np.ones(n, dtype=np.int64)
    longer = []
    idx = np.flatnonzero(values >= np.uint64(0x80))
    while idx.size:
        longer.append(idx)
        lengths[idx] += 1
        if len(longer) == _MAX_VARINT_LEN - 1:
            break
        idx = idx[values[idx] >= np.uint64(1 << (7 * (len(longer) + 1)))]
    starts = np.cumsum(lengths)
    out = np.empty(int(starts[-1]), dtype=np.uint8)
    starts -= lengths
    byte = values.astype(np.uint8)  # low 8 bits; the top one is replaced
    byte &= np.uint8(0x7F)
    byte[longer[0]] |= np.uint8(0x80)
    out[starts] = byte
    for j, idx in enumerate(longer, start=1):
        rest = values[idx] >> np.uint64(7 * j)
        byte = rest.astype(np.uint8)
        byte &= np.uint8(0x7F)
        byte[rest >= np.uint64(0x80)] |= np.uint8(0x80)
        out[starts[idx] + j] = byte
    return out


def _count_values(data: np.ndarray, claimed: int, what: str) -> np.ndarray:
    """Terminator mask of a varint section that must hold ``claimed`` values.

    The only allocation is the mask, sized by the bytes present; the
    claimed count is compared, never used as a size.
    """
    ends = data < np.uint8(0x80)
    found = int(np.count_nonzero(ends))
    if found != claimed:
        raise WireFormatError(
            f"{what} section terminates {found} values, header claims {claimed}"
        )
    if data.size and not ends[-1]:
        raise WireFormatError(f"{what} section ends inside a value")
    return ends


def _varint_decode(data: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Decode the LEB128 values of ``data`` given its terminator mask."""
    if data.size == 0:
        return np.empty(0, dtype=np.uint64)
    ends = np.flatnonzero(ends)
    if ends.size == data.size:
        return data.astype(np.uint64)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1]
    starts[1:] += 1
    byte = data[starts]
    values = byte.astype(np.uint64)
    # Mirror of the encoder: later passes touch only the values that
    # still have bytes left.
    idx = np.flatnonzero(byte >= np.uint8(0x80))
    extra = ends[idx] - starts[idx]  # bytes past the first
    if int(extra.max()) >= _MAX_VARINT_LEN:
        raise WireFormatError(
            f"varint longer than {_MAX_VARINT_LEN} bytes (corrupt stream)"
        )
    values[idx] &= np.uint64(0x7F)
    starts = starts[idx]
    j = 1
    while idx.size:
        group = data[starts + j].astype(np.uint64)
        group &= np.uint64(0x7F)
        group <<= np.uint64(7 * j)
        values[idx] |= group
        j += 1
        keep = extra >= j
        idx, starts, extra = idx[keep], starts[keep], extra[keep]
    return values


def encode_edges(edges: np.ndarray) -> np.ndarray:
    """Encode an ``(m, 2)`` integer edge block into a uint8 wire block.

    The block is sorted by ``(src, dst)`` before encoding, so the encoded
    form preserves the edge *multiset* but not the row order -- the same
    contract every exchange consumer already assumes.
    """
    edges = np.ascontiguousarray(edges, dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise WireFormatError(
            f"encode_edges expects an (m, 2) block, got shape {edges.shape}"
        )
    m = edges.shape[0]
    header = np.zeros(_HEADER, dtype=np.uint8)
    header[:4] = np.frombuffer(WIRE_MAGIC, dtype=np.uint8)
    if m == 0:
        return header
    u = edges.view(np.uint64)
    if int(u.max()) <= 0xFFFFFFFF:
        # Common case: vertex ids fit in 32 bits (a negative id reads
        # as >= 2**63 through the unsigned view, so one max covers both
        # ends), (src, dst) packs into one uint64 key and a plain sort
        # replaces the much slower two-key lexsort.  Same order.
        key = u[:, 0] << np.uint64(32)
        key |= u[:, 1]
        key.sort()
        src = key >> np.uint64(32)
        dst = key
        dst &= np.uint64(0xFFFFFFFF)
    else:
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        src = u[:, 0].take(order)
        dst = u[:, 1].take(order)
    first = np.flatnonzero(src[1:] != src[:-1])
    first += 1
    first = np.concatenate(([0], first))
    runs = first.shape[0]
    pairs = np.empty(2 * runs, dtype=np.uint64)
    pairs[0::2] = _delta_codes(src[first])
    pairs[1::2] = np.diff(first, append=m)
    source = _varint_encode(pairs)
    header[4:] = np.array([m, runs, source.size], dtype="<u8").view(np.uint8)
    return np.concatenate([header, source, _varint_encode(_delta_codes(dst))])


def is_wire_block(obj: object) -> bool:
    """True if ``obj`` looks like an :func:`encode_edges` payload."""
    return (
        isinstance(obj, np.ndarray)
        and obj.dtype == np.uint8
        and obj.ndim == 1
        and obj.size >= _HEADER
        and bytes(obj[:4]) == WIRE_MAGIC
    )


def _read_header(block: np.ndarray) -> tuple[int, int, int]:
    """``(edges, runs, source bytes)`` as claimed; only the frame is checked.

    The edge count is bounded here by the bytes that could carry it (one
    destination byte per edge at least), so a caller may size its output
    from it: at most 16 bytes per byte of block.
    """
    if not is_wire_block(block):
        if (
            isinstance(block, np.ndarray)
            and block.dtype == np.uint8
            and block.ndim == 1
            and bytes(block[:4]) == b"KWR1"
        ):
            raise WireFormatError(
                "decode_edges: KWR1 blocks are no longer decoded (retired "
                "layout; sender and receiver must run the same version)"
            )
        raise WireFormatError(
            "decode_edges: payload does not carry the wire magic"
        )
    m, runs, source_bytes = (
        int(v) for v in np.frombuffer(bytes(block[4:_HEADER]), dtype="<u8")
    )
    body = block.size - _HEADER
    if source_bytes > body or m > body - source_bytes:
        raise WireFormatError(
            f"header claims {m} edges and a {source_bytes}-byte source "
            f"section in a {body}-byte body"
        )
    return m, runs, source_bytes


def _edge_count(block: np.ndarray) -> int:
    """Rows :func:`decode_edges` needs in ``out=`` for this block.

    For :mod:`repro.distributed.shuffle`, which sizes one array for a
    whole round of received blocks before decoding any of them.
    """
    return _read_header(block)[0]


def decode_edges(block: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Decode a wire block back to an ``(m, 2)`` int64 edge array.

    Rows come back sorted by ``(src, dst)`` (the encoder's order).  With
    ``out=`` (an ``(m, 2)`` signed-integer array or slice, ``m`` the
    block's edge count) the rows are written there instead of into a
    fresh array; on a :class:`~repro.errors.WireFormatError` its contents
    are undefined.  An ``out`` narrower than ``int64`` (the exchange's
    ``int32`` id stack) is written only once every decoded id is known to
    fit it: an id outside its range is a ``WireFormatError``, never a
    silently wrapped value.
    """
    block = np.asarray(block)
    m, runs, source_bytes = _read_header(block)
    source = block[_HEADER : _HEADER + source_bytes]
    dest = block[_HEADER + source_bytes :]
    source_ends = _count_values(source, 2 * runs, "source")
    dest_ends = _count_values(dest, m, "destination")
    if out is None:
        out = np.empty((m, 2), dtype=np.int64)
    elif out.shape != (m, 2) or out.dtype.kind != "i":
        raise ValueError(
            f"decode_edges: out= is {out.dtype}{out.shape}, block holds "
            f"({m}, 2) signed-integer rows"
        )
    if m == 0:
        if runs:
            raise WireFormatError(f"{runs} source runs for 0 edges")
        return out
    pairs = _varint_decode(source, source_ends)
    lengths = pairs[1::2]
    # Bounding each run by m first keeps the sum far from wrapping.
    if (
        runs == 0
        or int(lengths.min()) == 0
        or int(lengths.max()) > m
        or int(lengths.sum()) != m
    ):
        raise WireFormatError(
            f"source run lengths do not partition {m} edges into {runs} "
            f"non-empty runs"
        )
    sources = np.cumsum(_unzigzag(pairs[0::2]), dtype=np.uint64)
    dests = _unzigzag(_varint_decode(dest, dest_ends))
    if out.dtype.itemsize == 8:
        cols = out.view(np.uint64)
        cols[:, 0] = np.repeat(sources, lengths.astype(np.int64))
        np.cumsum(dests, dtype=np.uint64, out=cols[:, 1])
        return out
    # A narrow out: every id, read as int64, must lie in [0, max].  Seen
    # unsigned, a negative id is >= 2**63, so one max per column decides.
    np.cumsum(dests, dtype=np.uint64, out=dests)
    top = np.iinfo(out.dtype).max
    for what, ids in (("source", sources), ("destination", dests)):
        worst = int(ids.max())
        if worst > top:
            signed = worst - (1 << 64) if worst >> 63 else worst
            raise WireFormatError(
                f"{what} id {signed} does not fit the {out.dtype} out= "
                f"(ids 0..{top})"
            )
    out[:, 0] = np.repeat(sources, lengths.astype(np.int64))
    out[:, 1] = dests
    return out
