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

Everything is vectorized numpy, and each pass runs in the narrowest
lane that holds its values:

* **Sort key.**  With ``lo`` the block's smallest id and ``b`` the bit
  width of its id span, ``(src - lo) << b | (dst - lo)`` is read straight
  from the block in its own dtype (the subtraction is exact in the
  column's unsigned width, as the span fits it) into ``uint32`` when
  ``2b <= 32`` -- every bucket of a product of at most 2**16 vertices --
  or ``uint64`` when ``2b <= 64``, and
  sorted in place: the order of the two-key lexsort, which remains only
  for 64-bit ids spanning more than 2**32.  The destination deltas lie
  within ``+-2**b`` and are zigzagged in the same lane; only the first
  destination, coded against 0, is a Python scalar.
* **Sparse continuation bytes.**  One comparison finds the values of
  more than one byte (about 5 % of exchange traffic); the first byte of
  every value is its low byte, the continuation bit set on those few,
  and all of them land through one boolean mask of the positions the
  continuation bytes leave free.  Only the multi-byte values are sized
  and have their later bytes written.  The decoder mirrors it: one
  terminator mask gathers every value's last byte -- the whole of a
  one-byte value -- and the few longer values are assembled from the
  continuation positions alone, in ``uint32`` up to four bytes.
* **The prefix sum in ``out``'s width.**  The one-byte codes unzigzag
  as bytes and widen once to the narrowest signed lane holding every
  delta; when that lane is no wider than ``out``, the destination
  column is summed straight into ``out``.  Every step is then below
  half of ``out``'s range, so the first id to leave ``[0, max]`` lands
  negative even where the sum wraps, and one sign check catches it.
  Wider steps take the exact 64-bit sum before any id is checked.

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
value, so a block encodes to the same bytes whatever its id dtype; a
non-integer block, or an unsigned id of 2**63 or more, is refused.  The
decoder writes ``int64`` rows, or rows of a narrower ``out=`` whose
every id is checked to fit it.

Every header field and every run length is outside input to the
decoder.  :func:`decode_edges` counts the terminator bytes of a section
(an allocation sized by the bytes actually present) before it believes
a claimed count, so nothing is ever allocated from a claim and peak
memory is a constant multiple of ``len(block)``; any block it cannot
account for byte for byte raises :class:`~repro.errors.WireFormatError`.
"""

from __future__ import annotations

import struct

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
_MASK64 = (1 << 64) - 1
_INT64_MAX = (1 << 63) - 1


def _header(m: int, runs: int, source_bytes: int) -> bytes:
    return WIRE_MAGIC + struct.pack("<QQQ", m, runs, source_bytes)


def _zigzag(values: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Zigzag-map unsigned-viewed deltas in place, in their own width.

    ``sign`` is scratch of the same shape and dtype.  Exact as 64-bit
    zigzag whenever each delta, read signed, fits the lane
    (``0,-1,1,-2,...`` -> ``0,1,2,3,...``).
    """
    # Arithmetic shift by the top bit smears the sign: 0 or -1, i.e.
    # the zigzag sign mask once viewed unsigned.
    signed = f"i{values.itemsize}"
    np.right_shift(
        values.view(signed), 8 * values.itemsize - 1, out=sign.view(signed)
    )
    values <<= 1
    values ^= sign
    return values


def _unzigzag(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_zigzag`, in place on an unsigned vector."""
    sign = values & 1
    np.negative(sign, out=sign)  # 0 or all ones, mod 2**w
    values >>= 1
    values ^= sign
    return values


def _zigzag_scalar(value: int) -> int:
    """64-bit zigzag code of one signed id."""
    return ((value << 1) ^ (value >> 63)) & _MASK64


def _leb128(value: int) -> bytes:
    """LEB128 bytes of one non-negative integer."""
    out = bytearray()
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _delta_codes(column: np.ndarray) -> np.ndarray:
    """Zigzag codes of a uint64 column's deltas (first against 0)."""
    deltas = column.copy()
    deltas[1:] -= column[:-1]
    return _zigzag(deltas, np.empty_like(deltas))


def _multibyte(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(idx, big, extra)``: where the values of more than one byte are,
    those values, and how many bytes each has past its first.

    Only the one comparison visits every value; the sizing passes see
    the few that have continuation bytes.
    """
    idx = np.flatnonzero(values >= 0x80)
    big = values[idx]
    extra = np.ones(idx.size, dtype=np.intp)
    if idx.size:
        length = -(-int(big.max()).bit_length() // 7)  # bytes of the largest
        for j in range(2, length):
            extra += big >= 1 << (7 * j)
    return idx, big, extra


def _put_varints(
    values: np.ndarray,
    idx: np.ndarray,
    big: np.ndarray,
    extra: np.ndarray,
    out: np.ndarray,
) -> None:
    """Write the LEB128 bytes of ``values`` into ``out``, which holds
    exactly ``values.size + extra.sum()`` bytes (see :func:`_multibyte`).

    Every value's first byte is its low byte, the continuation bit set
    on the multi-byte ones; the first bytes land through one boolean
    mask of the positions the continuation bytes leave free, and the
    continuation bytes are written for the multi-byte values alone.
    """
    if not idx.size:
        np.copyto(out, values, casting="unsafe")  # every value < 0x80
        return
    lead = values.astype(np.uint8)
    lead[idx] = big.astype(np.uint8) | 0x80
    # Where each multi-byte value's first byte lands: its index plus the
    # continuation bytes of the multi-byte values before it.
    at = np.cumsum(extra)
    at -= extra
    at += idx
    is_lead = np.ones(out.size, dtype=bool)
    for j in range(1, int(extra.max()) + 1):
        if j > 1:
            keep = extra >= j
            at, big, extra = at[keep], big[keep], extra[keep]
        byte = (big >> 7 * j).astype(np.uint8)
        byte &= 0x7F
        byte[extra > j] |= 0x80
        out[at + j] = byte
        is_lead[at + j] = False
    out[is_lead] = lead


def _count_values(data: np.ndarray, claimed: int, what: str) -> np.ndarray:
    """Terminator mask of a varint section that must hold ``claimed`` values.

    The only allocation is the mask, sized by the bytes present; the
    claimed count is compared, never used as a size.
    """
    ends = data < 0x80
    found = int(np.count_nonzero(ends))
    if found != claimed:
        raise WireFormatError(
            f"{what} section terminates {found} values, header claims {claimed}"
        )
    if data.size and not ends[-1]:
        raise WireFormatError(f"{what} section ends inside a value")
    return ends


def _read_varints(
    data: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The LEB128 values of ``data`` given its terminator mask, as
    ``(lead, at, big)``.

    ``lead`` holds the terminator bytes, gathered through the mask: the
    whole of every one-byte value, and the top 7-bit group of the
    longer ones.  Those sit at indices ``at``, and ``big`` holds them in
    full, assembled from the continuation bytes alone: ``uint32`` when
    none is longer than four bytes (values below 2**28), else ``uint64``.
    """
    lead = data[ends]
    cont = np.flatnonzero(~ends)
    if not cont.size:
        return lead, cont, np.empty(0, dtype=np.uint32)
    low = data[cont]
    # The value a continuation byte belongs to is the number of
    # terminators before it: its position less the continuation bytes
    # before it.
    owner = cont
    owner -= np.arange(cont.size)
    heads = np.flatnonzero(owner[1:] != owner[:-1])
    heads += 1
    heads = np.concatenate(([0], heads))
    extra = np.diff(heads, append=cont.size)  # bytes past the first
    at = owner[heads]
    del owner, cont
    longest = int(extra.max())
    if longest >= _MAX_VARINT_LEN:
        raise WireFormatError(
            f"varint longer than {_MAX_VARINT_LEN} bytes (corrupt stream)"
        )
    lane = np.dtype(np.uint32 if longest < 4 else np.uint64)
    big = lead[at].astype(lane)
    big <<= (7 * extra).astype(lane)  # the terminator's group goes on top
    rows = np.arange(at.size)
    for j in range(longest):
        if j:
            keep = extra > j
            rows, heads, extra = rows[keep], heads[keep], extra[keep]
        part = low[heads + j].astype(lane)
        part &= 0x7F
        part <<= 7 * j
        big[rows] |= part
    return lead, at, big


def _rebased(column: np.ndarray, lo: int, lane: np.dtype) -> np.ndarray:
    """``column - lo`` as ``lane`` integers, for ids spanning fewer bits
    than the lane: the cast keeps each id mod 2**w, so the difference,
    taken mod 2**w, is exact."""
    ids = column.astype(lane)
    if lo:
        ids -= lane.type(lo & ((1 << 8 * lane.itemsize) - 1))
    return ids


def encode_edges(edges: np.ndarray) -> np.ndarray:
    """Encode an ``(m, 2)`` integer edge block into a uint8 wire block.

    The block is sorted by ``(src, dst)`` before encoding, so the encoded
    form preserves the edge *multiset* but not the row order -- the same
    contract every exchange consumer already assumes.  Ids are read in
    the block's own dtype; a non-integer block, or an unsigned id past
    the signed 64-bit range the wire carries, is a
    :class:`~repro.errors.WireFormatError`, never a converted value.
    """
    edges = np.asarray(edges)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise WireFormatError(
            f"encode_edges expects an (m, 2) block, got shape {edges.shape}"
        )
    if edges.dtype.kind not in "iu":
        raise WireFormatError(
            f"encode_edges takes integer ids, got a {edges.dtype} block"
        )
    m = edges.shape[0]
    if m == 0:
        return np.frombuffer(_header(0, 0, 0), dtype=np.uint8).copy()
    lo, hi = int(edges.min()), int(edges.max())
    if hi > _INT64_MAX:
        raise WireFormatError(
            f"id {hi} is past the signed 64-bit ids the wire carries"
        )
    # Both columns rebased on the block's floor: ``bits`` bits hold any
    # id, 2 * bits the pair.
    bits = (hi - lo).bit_length()
    if 2 * bits <= 64:
        # (src - lo) << bits | (dst - lo) in the narrowest lane that holds
        # it, sorted in place: the order of the two-key lexsort.
        lane = np.dtype(np.uint32 if 2 * bits <= 32 else np.uint64)
        key = _rebased(edges[:, 0], lo, lane)
        key <<= bits
        rest = _rebased(edges[:, 1], lo, lane)
        key |= rest
        key.sort()
        src = np.right_shift(key, bits, out=rest)
        key &= (1 << bits) - 1
        dst = key
    else:
        # Only 64-bit ids can span past 2**32: lexsort, rebase as sorted.
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        src = _rebased(edges[:, 0].take(order), lo, np.dtype(np.uint64))
        dst = _rebased(edges[:, 1].take(order), lo, np.dtype(np.uint64))
    first = np.flatnonzero(src[1:] != src[:-1])
    first += 1
    first = np.concatenate(([0], first))
    runs = first.shape[0]
    sources = src[first].astype(np.uint64)
    sources += np.uint64(lo & _MASK64)
    pairs = np.empty(2 * runs, dtype=np.uint64)
    pairs[0::2] = _delta_codes(sources)
    pairs[1::2] = np.diff(first, append=m)
    # The first destination is coded against 0, which may leave the
    # lane; every later delta lies within +-2**bits and its code fits.
    head = _leb128(_zigzag_scalar(int(dst[0]) + lo))
    # Both columns are spent once their sections are known: the codes
    # take the source column's buffer, the sign scratch the destinations'.
    codes = np.subtract(dst[1:], dst[:-1], out=src[1:])
    _zigzag(codes, dst[1:])
    source_layout = _multibyte(pairs)
    dest_layout = _multibyte(codes)
    source_bytes = pairs.size + int(source_layout[2].sum())
    at = _HEADER + source_bytes + len(head)
    out = np.empty(at + codes.size + int(dest_layout[2].sum()), dtype=np.uint8)
    out[:_HEADER] = np.frombuffer(_header(m, runs, source_bytes), dtype=np.uint8)
    _put_varints(pairs, *source_layout, out[_HEADER : _HEADER + source_bytes])
    out[_HEADER + source_bytes : at] = np.frombuffer(head, dtype=np.uint8)
    _put_varints(codes, *dest_layout, out[at:])
    return out


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
    are undefined.  An id outside the range of an ``out`` narrower than
    ``int64`` (the exchange's ``int32`` id stack) is a
    ``WireFormatError``, never a silently wrapped value.
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
    lead, at, big = _read_varints(source, source_ends)
    pairs = lead.astype(np.uint64)
    pairs[at] = big
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
    top = np.iinfo(out.dtype).max
    narrow = out.dtype.itemsize < 8
    if narrow:
        _fits(sources, top, "source", out.dtype)
    ids = out.view(f"u{out.dtype.itemsize}")
    ids[:, 0] = np.repeat(
        sources.astype(ids.dtype, copy=False), lengths.astype(np.intp)
    )
    # Destination deltas in the narrowest signed lane: the one-byte codes
    # unzigzag as bytes, the few longer ones are patched in.
    lead, at, big = _read_varints(dest, dest_ends)
    deltas = _unzigzag(lead).view(np.int8)
    if at.size:
        deltas = deltas.astype(f"i{big.itemsize}")
        deltas[at] = _unzigzag(big).view(deltas.dtype)
    if deltas.itemsize <= out.dtype.itemsize:
        # The prefix sum in out's own width, straight into its column.
        # Every step is below half its range, so the first id to leave
        # [0, top] lands negative even where the sum wraps: one sign
        # check (a max of the unsigned view) catches it.
        np.cumsum(deltas, dtype=out.dtype, out=out[:, 1])
        if narrow:
            _fits(ids[:, 1], top, "destination", out.dtype)
        return out
    # Steps as wide as out's range: the exact sum, mod 2**64.
    dests = np.cumsum(deltas, dtype=np.int64).view(np.uint64)
    _fits(dests, top, "destination", out.dtype)
    ids[:, 1] = dests
    return out


def _fits(ids: np.ndarray, top: int, what: str, dtype: np.dtype) -> None:
    """Raise unless every id, read signed, lies in ``[0, top]``.

    Seen unsigned, a negative id is past every ``top``, so one max
    decides.
    """
    worst = int(ids.max())
    if worst > top:
        bits = 8 * ids.itemsize
        signed = worst - (1 << bits) if worst >> (bits - 1) else worst
        raise WireFormatError(
            f"{what} id {signed} does not fit the {dtype} out= (ids 0..{top})"
        )
