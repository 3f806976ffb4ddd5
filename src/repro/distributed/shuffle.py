"""Edge shuffle: route generated edges to their storage owners.

"If edges are being stored, the processor responsible for generating an edge
must then send it to the processor responsible for its storage as determined
by some mapping scheme" (Section III).  The shuffle is deliberately
independent of how edges were generated -- the modularity the paper calls
out -- so both the 1-D and 2-D generators reuse it unchanged.

Two bucketing kernels are provided:

``method="scatter"`` (default):
    a counting-sort scatter.  Owner ids are bounded by the world size, so
    they fit a narrow integer dtype and numpy's stable small-integer sort is
    a radix/counting sort -- O(m + nparts) instead of the O(m log m)
    comparison argsort.  On a 1M-edge block with 8 owners this is ~3x the
    argsort (see ``benchmarks/bench_kernels.py``).  The generator only
    ever uses this one, and under ``edge_hash`` it calls it once per dense
    chunk, where the chunk is produced: the hash map
    (:meth:`repro.util.hashing.EdgeHasher.owner`, tile by tile) writes the
    narrow sort key directly, so neither a product-sized ``int64`` owner
    array nor a product-sized copy of the round exists on the routing
    path.  A stable scatter per chunk, concatenated in chunk order, is row
    for row the stable scatter of the whole round.
``method="argsort"``:
    the stable comparison sort, kept as the kernel-level reference the
    property tests and ``bench_kernels.py`` compare the scatter against.

The exchange itself is split-phase (:func:`exchange_edges_start` /
:func:`exchange_edges_finish`, what the generator drives);
:func:`exchange_edges` is the pair finished at once.  The ``wire`` check
guards these public entry points independently of the plan's.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.comm import Communicator, Request
from repro.distributed.partition import owners_by_edge_hash, owners_by_vertex_block
from repro.distributed.wire import (
    _edge_count,
    decode_edges,
    encode_edges,
    is_wire_block,
)
from repro.errors import CommunicatorError
from repro.telemetry.session import telemetry_of

__all__ = [
    "counting_scatter",
    "bucket_edges",
    "exchange_edges",
    "exchange_edges_start",
    "exchange_edges_finish",
    "WIRE_FORMATS",
]

#: Valid values of the ``wire`` knob: ``"raw"`` ships int64 blocks as-is,
#: ``"varint"`` sorts them and varint-encodes source runs and destination
#: deltas (see :mod:`repro.distributed.wire`).
WIRE_FORMATS = ("raw", "varint")


def _check_wire(wire: str) -> None:
    if wire not in WIRE_FORMATS:
        raise ValueError(
            f"unknown wire format {wire!r}; expected one of {WIRE_FORMATS}"
        )


def _owner_sort_dtype(nparts: int) -> np.dtype:
    """Narrowest unsigned dtype holding owner ids, to hit numpy's radix sort."""
    if nparts <= 1 << 8:
        return np.dtype(np.uint8)
    if nparts <= 1 << 16:
        return np.dtype(np.uint16)
    # numpy's radix sort covers 1- and 2-byte ints; wider worlds fall back
    # to a comparison sort on int32, still cheaper than int64 keys.
    return np.dtype(np.int32)


def _gather_rows(rows: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``rows[order]`` for 2-D row arrays, via a single flat 1-D take.

    Gathering an ``(m, 2)`` int64 array row-wise through a 16-byte-element
    view is ~3x faster than the 2-D fancy index numpy would otherwise run.
    """
    if (
        rows.ndim == 2
        and rows.shape[1] == 2
        and rows.itemsize == 8
        and rows.flags.c_contiguous
    ):
        flat = rows.view(np.complex128).reshape(-1)
        return flat.take(order).view(rows.dtype).reshape(-1, 2)
    return rows[order]


def counting_scatter(
    rows: np.ndarray, owners: np.ndarray, nparts: int
) -> list[np.ndarray]:
    """Split ``rows`` into ``nparts`` buckets by ``owners`` without a
    comparison sort.

    Stable (rows keep their relative order inside each bucket), so the
    output is row-for-row identical to the legacy stable-argsort split.
    Returned buckets are views into one backing array -- treat them as
    read-only, like buffers received from :meth:`Communicator.alltoall`.
    """
    keys = owners.astype(_owner_sort_dtype(nparts), copy=False)
    order = np.argsort(keys, kind="stable")
    sorted_rows = _gather_rows(rows, order)
    counts = np.bincount(owners, minlength=nparts)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    return [sorted_rows[bounds[d] : bounds[d + 1]] for d in range(nparts)]


def edge_owners(
    edges: np.ndarray,
    nparts: int,
    *,
    scheme: str = "source_block",
    n: int | None = None,
    seed: int = 0,
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
        independent.
    """
    return _owners(edges, nparts, scheme, n, seed, np.int64)


def _owners(edges, nparts, scheme, n, seed, dtype) -> np.ndarray:
    """:func:`edge_owners` in ``dtype``: the hash map writes the scatter's
    narrow key directly instead of an ``int64`` array to narrow later."""
    if scheme == "source_block":
        if n is None:
            raise ValueError("source_block scheme requires the vertex count n")
        return owners_by_vertex_block(edges[:, 0], n, nparts)
    if scheme == "edge_hash":
        return owners_by_edge_hash(edges, nparts, seed, dtype)
    raise ValueError(f"unknown scheme {scheme!r}")


def bucket_edges(
    edges: np.ndarray,
    nparts: int,
    *,
    scheme: str = "source_block",
    n: int | None = None,
    seed: int = 0,
    method: str = "scatter",
) -> list[np.ndarray]:
    """Split an edge block into per-owner buckets.

    See :func:`edge_owners` for the schemes and the module docstring for the
    two bucketing ``method``s.  Both methods return identical bucket
    contents in identical row order.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    key = _owner_sort_dtype(nparts) if method == "scatter" else np.int64
    owners = _owners(edges, nparts, scheme, n, seed, key)
    if method == "scatter":
        return counting_scatter(edges, owners, nparts)
    if method == "argsort":
        order = np.argsort(owners, kind="stable")
        sorted_edges = edges[order]
        counts = np.bincount(owners, minlength=nparts)
        splits = np.cumsum(counts)[:-1]
        return np.split(sorted_edges, splits)
    raise ValueError(f"unknown bucketing method {method!r}")


def _encode_outgoing(
    outgoing: list[np.ndarray], rank: int, wire: str, tel
) -> list[np.ndarray]:
    """Apply the wire format to the buckets that travel (counting bytes).

    ``outgoing[rank]`` never leaves this rank -- every transport hands
    it back by reference -- so it is passed through as the int64 block
    it is, neither encoded nor counted.
    """
    if wire == "raw":
        return outgoing
    raw_bytes = wire_bytes = 0
    payload: list[np.ndarray | None] = list(outgoing)
    for dest, blk in enumerate(outgoing):
        if dest == rank:
            continue
        if blk is None or np.asarray(blk).size == 0:
            payload[dest] = None
            continue
        encoded = payload[dest] = encode_edges(blk)
        raw_bytes += 16 * len(blk)
        wire_bytes += encoded.nbytes
    tel.add("exchange.bytes_raw", raw_bytes)
    tel.add("exchange.bytes_wire", wire_bytes)
    return payload


def _stack_received(incoming: list) -> np.ndarray:
    """One fresh ``(m, 2)`` int64 block holding every received bucket.

    The block is sized once -- from the raw buckets' lengths and the
    wire blocks' header counts, each bounded by the bytes that carry it
    -- and every bucket is copied or decoded straight into its slice, in
    source-rank order.  Received buffers are only read.  ``None`` and
    zero-size entries are skipped.  A payload that is neither a wire
    block nor interpretable as ``(m, 2)`` integer edges (odd element
    count, non-numeric dtype) means a corrupted or misrouted message;
    raise a diagnostic naming the problem instead of letting ``reshape``
    throw a bare ``ValueError`` deep in the exchange.
    """
    blocks: list[tuple[np.ndarray, int, bool]] = []  # bucket, rows, encoded
    for blk in incoming:
        if blk is None:
            continue
        blk = np.asarray(blk)
        if blk.size == 0:
            continue
        if is_wire_block(blk):
            # The magic check precedes the shape validation: an encoded
            # uint8 stream may well have odd length.
            blocks.append((blk, _edge_count(blk), True))
            continue
        if blk.dtype.kind not in "biu" or blk.size % 2:
            raise CommunicatorError(
                f"received edge block with dtype {blk.dtype} and shape "
                f"{blk.shape}: not interpretable as (m, 2) integer edges -- "
                f"a corrupted or misrouted exchange message"
            )
        blocks.append((blk.reshape(-1, 2), blk.size // 2, False))
    stacked = np.empty((sum(m for _, m, _ in blocks), 2), dtype=np.int64)
    at = 0
    for blk, m, encoded in blocks:
        if encoded:
            decode_edges(blk, out=stacked[at : at + m])
        else:
            stacked[at : at + m] = blk
        at += m
    return stacked


def exchange_edges(
    comm: Communicator, outgoing: list[np.ndarray], *, wire: str = "raw"
) -> np.ndarray:
    """All-to-all exchange of per-destination edge buckets.

    ``outgoing[d]`` is the block this rank routes to rank ``d``; returns the
    vertical stack of everything received (own bucket included).  Defensive
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


def exchange_edges_finish(comm: Communicator, request: Request) -> np.ndarray:
    """Complete a split-phase exchange; returns the stacked received edges.

    Emits one ``exchange`` span and the ``edges.received`` counter per
    exchange regardless of pipeline mode (the span covers the wait +
    decode, with issue time under ``exchange.issue``).
    """
    tel = telemetry_of(comm)
    with tel.span("exchange", cat="phase"):
        incoming = comm.alltoall_finish(request)
        received = _stack_received(incoming)
    tel.add("edges.received", len(received))
    return received
