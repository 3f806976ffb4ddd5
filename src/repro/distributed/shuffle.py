"""Edge shuffle: route generated edges to their storage owners.

"If edges are being stored, the processor responsible for generating an edge
must then send it to the processor responsible for its storage as determined
by some mapping scheme" (Section III).  The shuffle is deliberately
independent of how edges were generated -- the modularity the paper calls
out -- so both the 1-D and 2-D generators reuse it unchanged.  Blocks
keep the dtype they were generated in -- the product's id dtype
(:func:`repro.kronecker.product.id_dtype`), ``int32`` unless ``n_C``
exceeds ``2**31`` -- through bucketing, the exchange and the output a
rank stores; nothing here widens a block.

Two bucketing kernels are provided:

``method="scatter"`` (default):
    a counting scatter, one tile of the hash kernel at a time
    (:data:`repro.util.hashing._TILE`, 2^15 rows).  Pass 1 takes each
    tile's owners -- under ``edge_hash`` straight from the hash kernel
    (:meth:`repro.util.hashing.EdgeHasher.owner_tiles`) -- packs each
    with its tile-local row index into one key, ``owner << 15 | index``,
    and sorts the tile's keys while they are in cache.  The keys are
    distinct, so the sort is stable whatever numpy runs, and the sorted
    keys are the tile's order (low bits) and its owner runs
    (``searchsorted`` of each owner's first key), whose sums over tiles
    are the owner bounds.  Pass 2 gathers each owner's run of each tile
    straight into that owner's slice of one exact-size backing array
    (runs that land back to back in one ``take``: a block of one tile is
    one gather).  Per-tile stable scatters concatenated in tile order
    are the stable scatter of the whole block, and per-chunk ones
    concatenated in chunk order that of the whole round, so no row
    moves.  Nothing
    product-sized is made but the sorted keys (2 bytes a row for up to
    two owners, 4 up to 2^17) and the backing array: no ``int64`` owner
    array, whole-block argsort, ``order`` array or gathered copy.  On
    the two chunks of one rank's share of the ledger's ``gen_hash_2d``
    (1.73e6 ``int32`` rows, 2 owners) this is ~0.88x the same scatter
    with a radix argsort of 1-byte owners per tile, and in a traced
    two-rank run the ``route`` span fell ~30 % against the whole-block
    form (EXPERIMENTS.md L14).  A block shorter than a tile makes a few
    more numpy calls than the whole-block form did, which the thread
    backend pays for in GIL hand-offs (``gen_skg_hash``: ~2 % of its
    kernel).  Pass 2 takes one Python step per
    (tile, owner) pair: nothing at the world sizes that run here,
    ~0.45 s for 70,000 owners over 1e5 rows (argsort: ~0.17 s).
``method="argsort"``:
    the stable comparison sort, kept as the kernel-level reference the
    property tests and ``bench_kernels.py`` compare the scatter against.

The exchange itself is split-phase (:func:`exchange_edges_start` /
:func:`exchange_edges_finish`, what the generator drives);
:func:`exchange_edges` is the pair finished at once.  What arrives lands
through one function, :func:`_land`: into a fresh stack sized from the
blocks, or -- when the generator knows every sender's row count ahead
(:class:`Slots`) -- into the rank's output, each block's count checked
before anything is written.  The ``wire`` check
guards these public entry points independently of the plan's.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.distributed.comm import Communicator, Request
from repro.distributed.partition import owners_by_edge_hash, owners_by_vertex_block
from repro.distributed.wire import (
    _edge_count,
    decode_edges,
    encode_edges,
    is_wire_block,
)
from repro.errors import CommunicatorError, PartitionError
from repro.kronecker.product import id_dtype
from repro.telemetry.session import telemetry_of
from repro.util import hashing
from repro.util.hashing import EdgeHasher

__all__ = [
    "counting_scatter",
    "bucket_edges",
    "exchange_edges",
    "exchange_edges_start",
    "exchange_edges_finish",
    "WIRE_FORMATS",
]

#: Valid values of the ``wire`` knob: ``"raw"`` ships blocks as-is, in
#: their id dtype; ``"varint"`` sorts them and varint-encodes source runs
#: and destination deltas (see :mod:`repro.distributed.wire`).
WIRE_FORMATS = ("raw", "varint")


def _check_wire(wire: str) -> None:
    if wire not in WIRE_FORMATS:
        raise ValueError(
            f"unknown wire format {wire!r}; expected one of {WIRE_FORMATS}"
        )


#: One-element view of a whole ``(id, id)`` row, by id itemsize.
_ROW_VIEW = {
    1: np.dtype(np.uint16),
    2: np.dtype(np.uint32),
    4: np.dtype(np.int64),
    8: np.dtype(np.complex128),
}


def _tile_scatter(rows: np.ndarray, owner_tiles, nparts: int) -> list[np.ndarray]:
    """Stable scatter of ``rows`` by owner, one cache-resident tile at a time.

    ``owner_tiles`` yields ``(start, stop, owners)`` covering the rows in
    order.  Pass 1 packs each tile's owners with their tile-local row
    index into one composite key, ``owner << shift | index``, and sorts
    the tile's keys while they are in cache: the keys are distinct, so
    any sort is stable, and the sorted keys carry both the tile's order
    (the low bits) and its owner runs (``searchsorted`` of each owner's
    first key).  The runs summed over tiles are the owner bounds.  Pass 2
    gathers each owner's run of each tile straight into that owner's
    slice of one exact-size backing array, at the exclusive scan of the
    counts plus what earlier tiles put there.  Per-tile stable scatters
    concatenated in tile order are the stable scatter of the whole block,
    so the row order is that of ``method="argsort"``.  Rows are gathered
    through a view with one element per row (~3x faster than a 2-D fancy
    index).
    """
    m = len(rows)
    shift = (hashing._TILE - 1).bit_length()
    low = (1 << shift) - 1
    # The narrowest unsigned type that holds every key: numpy sorts it
    # fastest (uint16 for two owners: ~130 us a tile against ~170 for
    # uint32 and 150-380 for the radix argsort of 1-byte owners).
    key = np.min_scalar_type((nparts - 1) << shift | low)
    index = np.arange(min(m, hashing._TILE), dtype=key)
    first = np.arange(1, nparts, dtype=key) << key.type(shift)  # of owner d
    sorted_keys = np.empty(m, dtype=key)
    bounds = np.zeros(nparts + 1, dtype=np.int64)
    tiles = []
    for start, stop, owners in owner_tiles:
        tile = sorted_keys[start:stop]
        np.copyto(tile, owners, casting="unsafe")
        tile <<= key.type(shift)
        tile |= index[: stop - start]
        tile.sort()
        # Rows of this tile owned below d, summed: the start of owner d.
        bounds[1:-1] += np.searchsorted(tile, first)
        tiles.append((start, stop))
    bounds[-1] = m
    rows = np.ascontiguousarray(rows)
    backing = np.empty((m, 2), dtype=rows.dtype)
    view = _ROW_VIEW[rows.itemsize]
    src, dst = rows.view(view).reshape(-1), backing.view(view).reshape(-1)
    cursor = bounds[:-1].tolist()
    for start, stop in tiles:
        tile = sorted_keys[start:stop]
        order = tile & key.type(low)
        runs = [0, *np.searchsorted(tile, first).tolist(), stop - start]
        # Owner d's run [a, b) goes to cursor[d] on: one take per stretch
        # of runs that land back to back (a block of one tile is one).
        takes = []
        for d in range(nparts):
            a, b = runs[d], runs[d + 1]
            if a < b:
                if takes and takes[-1][2] + a - takes[-1][0] == cursor[d]:
                    takes[-1][1] = b
                else:
                    takes.append([a, b, cursor[d]])
                cursor[d] += b - a
        for a, b, at in takes:
            np.take(
                src[start:stop], order[a:b], out=dst[at : at + b - a],
                mode="wrap",
            )
    return [backing[bounds[d] : bounds[d + 1]] for d in range(nparts)]


def _array_tiles(owners: np.ndarray):
    """``(start, stop, owners[start:stop])`` over ``_TILE``-row tiles."""
    for start in range(0, len(owners), hashing._TILE):
        stop = min(start + hashing._TILE, len(owners))
        yield start, stop, owners[start:stop]


def counting_scatter(
    rows: np.ndarray, owners: np.ndarray, nparts: int
) -> list[np.ndarray]:
    """Split ``rows`` into ``nparts`` buckets by ``owners``, tile by tile.

    Stable (rows keep their relative order inside each bucket), so the
    output is row-for-row identical to the stable-argsort split.
    Returned buckets are views into one backing array -- treat them as
    read-only, like buffers received from :meth:`Communicator.alltoall`.
    """
    return _tile_scatter(rows, _array_tiles(owners), nparts)


def edge_owners(
    edges: np.ndarray,
    nparts: int,
    *,
    scheme: str = "source_block",
    n: int | None = None,
) -> np.ndarray:
    """Owner rank of each edge row under a storage scheme.

    Schemes
    -------
    ``"source_block"``:
        owner of ``(u, v)`` is the block owner of ``u`` (requires ``n``,
        the product vertex count).  This is the typical adjacency-storage
        layout: each rank stores the rows of its vertex range.
    ``"edge_hash"``:
        owner is ``hash(u, v) % nparts`` -- load-balanced, direction
        independent.  The seed is 0: no run key could record another.
    """
    if scheme == "source_block":
        if n is None:
            raise ValueError("source_block scheme requires the vertex count n")
        return owners_by_vertex_block(edges[:, 0], n, nparts)
    if scheme == "edge_hash":
        return owners_by_edge_hash(edges, nparts)
    raise ValueError(f"unknown scheme {scheme!r}")


def bucket_edges(
    edges: np.ndarray,
    nparts: int,
    *,
    scheme: str = "source_block",
    n: int | None = None,
    method: str = "scatter",
) -> list[np.ndarray]:
    """Split an edge block into per-owner buckets.

    See :func:`edge_owners` for the schemes and the module docstring for the
    two bucketing ``method``s.  Both methods return identical bucket
    contents in identical row order, in the dtype ``edges`` came in
    (anything but integers is read as ``int64``).
    """
    if method not in ("scatter", "argsort"):
        raise ValueError(f"unknown bucketing method {method!r}")
    edges = np.asarray(edges).reshape(-1, 2)
    if edges.dtype.kind not in "iu":
        edges = edges.astype(np.int64)
    if method == "scatter" and scheme == "edge_hash":
        if nparts < 1:
            raise PartitionError(f"nparts must be >= 1, got {nparts}")
        tiles = EdgeHasher().owner_tiles(edges[:, 0], edges[:, 1], nparts)
        return _tile_scatter(edges, tiles, nparts)
    owners = edge_owners(edges, nparts, scheme=scheme, n=n)
    if method == "scatter":
        return counting_scatter(edges, owners, nparts)
    order = np.argsort(owners, kind="stable")
    sorted_edges = edges[order]
    counts = np.bincount(owners, minlength=nparts)
    splits = np.cumsum(counts)[:-1]
    return np.split(sorted_edges, splits)


def _encode_outgoing(
    outgoing: list[np.ndarray], rank: int, wire: str, tel
) -> list[np.ndarray]:
    """Apply the wire format to the buckets that travel (counting bytes).

    ``outgoing[rank]`` never leaves this rank -- every transport hands
    it back by reference -- so it is passed through as the block it is,
    in its id dtype, neither encoded nor counted.  ``exchange.bytes_raw``
    counts what the encoded buckets would have been raw: their bytes in
    their own dtype.  Each encoding is one ``wire.encode`` span, with the
    bucket's rows and raw bytes as args.
    """
    if wire == "raw":
        return outgoing
    raw_bytes = wire_bytes = 0
    payload: list[np.ndarray | None] = list(outgoing)
    for dest, blk in enumerate(outgoing):
        if dest == rank:
            continue
        blk = None if blk is None else np.asarray(blk)
        if blk is None or blk.size == 0:
            payload[dest] = None
            continue
        with tel.span("wire.encode", rows=len(blk), bytes=blk.nbytes):
            encoded = payload[dest] = encode_edges(blk)
        raw_bytes += blk.nbytes
        wire_bytes += encoded.nbytes
    tel.add("exchange.bytes_raw", raw_bytes)
    tel.add("exchange.bytes_wire", wire_bytes)
    return payload


class Slots(NamedTuple):
    """Where one exchange's rows land when their counts are known ahead.

    ``out`` is the exchange's region of the rank's stored output, one
    slice per source rank in rank order; ``counts[s]`` is the rows rank
    ``s`` must send; ``rnd`` is the round, named in errors.
    """

    out: np.ndarray
    counts: np.ndarray
    rnd: int


def _received_blocks(
    incoming: list, dtype: np.dtype
) -> list[tuple[np.ndarray | None, int, bool]]:
    """``(block, rows, encoded)`` of each source rank's received bucket.

    A raw block's rows are its element count halved, a wire block's its
    header count, bounded by the bytes that carry it; ``None`` and
    zero-size entries are ``(None, 0, False)``.  A payload that is neither
    a wire block nor interpretable as ``(m, 2)`` integer edges (odd
    element count, non-numeric dtype) means a corrupted or misrouted
    message; raise a diagnostic naming the problem instead of letting
    ``reshape`` throw a bare ``ValueError`` deep in the exchange.  So does
    a raw block whose ids ``dtype`` cannot hold exactly (an ``int64``
    block into an ``int32`` output): assignment would wrap an id above
    ``2**31 - 1`` silently.  Narrower blocks widen exactly.
    """
    blocks: list[tuple[np.ndarray | None, int, bool]] = []
    for blk in incoming:
        blk = None if blk is None else np.asarray(blk)
        if blk is None or blk.size == 0:
            blocks.append((None, 0, False))
        elif is_wire_block(blk):
            # The magic check precedes the shape validation: an encoded
            # uint8 stream may well have odd length.
            blocks.append((blk, _edge_count(blk), True))
        elif blk.dtype.kind not in "biu" or blk.size % 2:
            raise CommunicatorError(
                f"received edge block with dtype {blk.dtype} and shape "
                f"{blk.shape}: not interpretable as (m, 2) integer edges -- "
                f"a corrupted or misrouted exchange message"
            )
        elif not np.can_cast(blk.dtype, dtype, "safe"):
            raise CommunicatorError(
                f"received a raw {blk.dtype} edge block for a {dtype} "
                f"stack: {blk.dtype} ids do not fit {dtype}, the id dtype "
                f"of this product -- a rank generating in another id dtype"
            )
        else:
            blocks.append((blk.reshape(-1, 2), blk.size // 2, False))
    return blocks


def _land(blocks: list, out: np.ndarray, tel) -> np.ndarray:
    """Copy or decode each of ``blocks`` (:func:`_received_blocks`) into
    its slice of ``out``, back to back in source-rank order; returns ``out``.

    Each decoding is one ``wire.decode`` span on ``tel`` (the block's rows
    and wire bytes as args).  Received buffers are only read.  A block
    that already is its slice -- the own bucket, which every transport
    hands back by reference, when it was generated in place -- is left
    where it is.
    """
    at = 0
    for blk, m, encoded in blocks:
        dst = out[at : at + m]
        if encoded:
            with tel.span("wire.decode", rows=m, bytes=blk.nbytes):
                decode_edges(blk, out=dst)
        elif m and blk.ctypes.data != dst.ctypes.data:
            dst[...] = blk
        at += m
    return out


def _stack_received(incoming: list, dtype: np.dtype, tel) -> np.ndarray:
    """One fresh ``(m, 2)`` block of ``dtype`` holding every received bucket.

    ``dtype`` is the product's id dtype, fixed by the caller from ``n_C``
    -- never by what arrived, so a rank that receives nothing stores the
    same dtype as its peers.  The block is sized once from the buckets'
    row counts and every bucket is landed straight into its slice.
    """
    blocks = _received_blocks(incoming, dtype)
    return _land(blocks, np.empty((sum(m for _, m, _ in blocks), 2), dtype), tel)


def _land_in_slots(incoming: list, slots: Slots, tel) -> np.ndarray:
    """Land every received bucket in its slot of ``slots.out``.

    Every bucket's row count is checked against ``slots.counts`` before
    anything is written: a block of the wrong size raises
    :class:`CommunicatorError` naming the round, the sender and both
    counts.
    """
    blocks = _received_blocks(incoming, slots.out.dtype)
    for sender, ((_, m, _), expected) in enumerate(zip(blocks, slots.counts)):
        if m != expected:
            raise CommunicatorError(
                f"round {slots.rnd}: sender {sender} sent {m} rows, "
                f"expected {int(expected)} -- a block of the wrong size"
            )
    return _land(blocks, slots.out, tel)


def exchange_edges(
    comm: Communicator, outgoing: list[np.ndarray], *, wire: str = "raw"
) -> np.ndarray:
    """All-to-all exchange of per-destination edge buckets.

    ``outgoing[d]`` is the block this rank routes to rank ``d``; returns the
    vertical stack of everything received (own bucket included), as
    ``int64``: this form does not know the product's vertex count, so
    raw blocks of any integer dtype that widens exactly are accepted (the
    generator finishes with ``n=`` and stacks in the id dtype).  Defensive
    about what backends hand back: ``None`` entries and zero-size blocks of
    any shape are skipped, and received buffers are never mutated (the
    zero-copy process backend may return read-only shared views -- see
    :meth:`Communicator.alltoall`); the returned stack is a fresh array this
    rank owns.

    ``wire="varint"`` compresses each bucket bound for another rank
    before the collective and decodes on receipt
    (:mod:`repro.distributed.wire`); the received *multiset* of edges is
    identical, but rows from other ranks arrive sorted per block.  The
    own bucket crosses nothing, is never encoded, and keeps the row
    order it was produced in.

    The blocking form is the split-phase pair finished at once.
    """
    return exchange_edges_finish(
        comm, exchange_edges_start(comm, outgoing, wire=wire)
    )


def exchange_edges_start(
    comm: Communicator, outgoing: list[np.ndarray], *, wire: str = "raw"
) -> Request:
    """Issue the split-phase half of :func:`exchange_edges`.

    Buckets bound for other ranks are (optionally) wire-encoded and the
    exchange is started via :meth:`Communicator.alltoall_start`; the
    returned request is fed to :func:`exchange_edges_finish`.  Between
    the two calls the caller owns neither the outgoing buckets
    (in-flight, see :class:`~repro.distributed.comm.Request`) nor any
    received data yet -- it should generate the *next* chunk, which is
    the entire point.
    """
    _check_wire(wire)
    tel = telemetry_of(comm)
    with tel.span("exchange.issue", cat="phase"):
        tel.add("edges.routed", sum(len(b) for b in outgoing if b is not None))
        payload = _encode_outgoing(outgoing, comm.rank, wire, tel)
        return comm.alltoall_start(payload)


def exchange_edges_finish(
    comm: Communicator,
    request: Request,
    n: int | None = None,
    slots: Slots | None = None,
) -> np.ndarray:
    """Complete a split-phase exchange; returns the received edges.

    Without ``slots`` they are one fresh stack in
    :func:`~repro.kronecker.product.id_dtype` of ``n``, the product's
    vertex count (``int64`` when not given); with them, ``slots.out``,
    each sender's rows landed in its slot once its count checked out.  A
    raw block that dtype cannot hold is a :class:`CommunicatorError`.
    Emits one ``exchange`` span and the ``edges.received`` counter per
    exchange regardless of pipeline mode (the span covers the wait +
    decode, with issue time under ``exchange.issue``).
    """
    tel = telemetry_of(comm)
    with tel.span("exchange", cat="phase"):
        incoming = comm.alltoall_finish(request)
        if slots is None:
            received = _stack_received(incoming, id_dtype(n), tel)
        else:
            received = _land_in_slots(incoming, slots, tel)
    tel.add("edges.received", len(received))
    return received
