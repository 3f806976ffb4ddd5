"""Nonstochastic Kronecker product of edge lists.

The central generation primitive: for factors ``A`` (``n_A`` vertices) and
``B`` (``n_B`` vertices), every pair of a directed edge ``(i, j)`` of A and a
directed edge ``(k, l)`` of B contributes the product edge

.. math::

    (\\gamma(i, k), \\gamma(j, l)) = (i \\cdot n_B + k,\\; j \\cdot n_B + l),

so ``|E_C| = |E_A| \\cdot |E_B|`` directed edges.  Generation is therefore an
outer product over edge rows; we vectorize it as one broadcast add per
endpoint and --
because the product can be orders of magnitude larger than either factor --
also expose a chunked streaming form that never materializes more than
``chunk_size`` product edges at once.  The distributed generator in
:mod:`repro.distributed.generator` drives exactly these kernels per rank.

*Id width.*  Every product id is below ``n_C``, so the kernels that know
``n_C`` allocate their blocks -- and run their broadcast adds -- in
:func:`id_dtype` of it: ``int32`` up to ``n_C = 2**31``, 8 bytes a row
instead of 16, and ``int64`` only past that.  That function is the one
place the width is chosen.  The serial :func:`kron_product` (an
:class:`~repro.graph.edgelist.EdgeList`, always ``int64``) stays wide.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.graph.edgelist import EdgeList
from repro.util.chunking import chunk_bounds

__all__ = [
    "id_dtype",
    "kron_edge_block",
    "kron_product",
    "iter_kron_product",
    "dense_chunk_count",
    "kron_power",
    "product_size",
    "RoutePlanB",
    "plan_route_b",
    "kron_edge_block_routed",
    "kron_routed_full",
    "iter_kron_product_routed",
    "routed_chunk_count",
]

#: Default number of product edges materialized per streamed chunk.
DEFAULT_CHUNK = 1 << 20


def id_dtype(n_c: int | None) -> np.dtype:
    """The dtype of an ``n_c``-vertex product's vertex ids.

    ``int32`` when every id ``0 .. n_c - 1`` fits (``n_c <= 2**31``),
    ``int64`` otherwise -- and for ``None``, a product whose size the
    caller does not know.  Derived from ``n_c`` alone, so it is no knob:
    every rank of a run reaches the same answer, and the values of every
    block (hence every digest) do not depend on it.
    """
    if n_c is not None and n_c <= 1 << 31:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def product_size(el_a: EdgeList, el_b: EdgeList) -> tuple[int, int]:
    """Exact ``(n_C, directed-edge count)`` of ``A (x) B`` without generating it.

    This is the "ground truth from sublinear storage" counting mode used to
    report paper-scale sizes (e.g. the 40M-vertex / 1.1B-edge gnutella
    product) that are never materialized.
    """
    return el_a.n * el_b.n, el_a.m_directed * el_b.m_directed


def kron_edge_block(
    edges_a: np.ndarray, edges_b: np.ndarray, n_b: int, n_c: int | None = None
) -> np.ndarray:
    """Dense outer product of two directed edge blocks.

    Returns the ``(len(a) * len(b), 2)`` array of product edges, ordered with
    the A-edge index varying slowest, in :func:`id_dtype` of the product's
    vertex count ``n_c`` (``int64`` when it is not given).  This is the
    innermost kernel; callers control memory by bounding the block sizes.
    """
    ma, mb = len(edges_a), len(edges_b)
    dtype = id_dtype(n_c)
    out = np.empty((ma * mb, 2), dtype=dtype)
    if ma == 0 or mb == 0:
        return out
    # gamma(i, k) = i * n_B + k (Def. 1) over every (A-edge, B-edge) pair:
    # one broadcast add per endpoint, written straight into its column of
    # the interleaved block -- no repeat/tile temporaries, no column_stack.
    # Operands and sums are all below n_C, so the add is exact in ``dtype``.
    pairs = out.reshape(ma, mb, 2)
    for col in (0, 1):
        base = (edges_a[:, col] * np.int64(n_b)).astype(dtype, copy=False)
        np.add(
            base[:, None],
            edges_b[None, :, col].astype(dtype, copy=False),
            out=pairs[:, :, col],
        )
    return out


def kron_product(el_a: EdgeList, el_b: EdgeList) -> EdgeList:
    """Materialize ``C = A (x) B`` as an edge list.

    Semantics follow Def. 1 exactly: the output has one directed edge per
    (A-edge, B-edge) pair.  If both inputs are symmetric, the output is
    symmetric; self-loop structure composes as ``(i=j and k=l)``.
    """
    edges = kron_edge_block(el_a.edges, el_b.edges, el_b.n)
    return EdgeList(edges, el_a.n * el_b.n)


def iter_kron_product(
    el_a: EdgeList,
    el_b: EdgeList,
    chunk_size: int = DEFAULT_CHUNK,
) -> Iterator[np.ndarray]:
    """Stream ``C = A (x) B`` in chunks of at most ``chunk_size`` edges.

    Chunking follows the natural generation order (A-edge major): each yield
    is a contiguous range of the conceptual outer-product enumeration, so
    concatenating all chunks equals :func:`kron_product`.  B is held whole
    (the paper replicates B on every processor); A rows are sliced.

    Yields
    ------
    numpy.ndarray
        ``(c, 2)`` blocks of product edges, ``c <= chunk_size``, in
        :func:`id_dtype` of the product's vertex count.
    """
    mb = el_b.m_directed
    if mb == 0 or el_a.m_directed == 0:
        return
    n_c = el_a.n * el_b.n
    # Choose how many A-edges to expand per chunk; at least one A-edge,
    # whose full B-expansion may exceed chunk_size -- then sub-chunk it.
    a_per_chunk = max(1, chunk_size // mb)
    for a_start, a_stop in chunk_bounds(el_a.m_directed, a_per_chunk):
        block = kron_edge_block(
            el_a.edges[a_start:a_stop], el_b.edges, el_b.n, n_c
        )
        if len(block) <= chunk_size:
            yield block
        else:
            for s, t in chunk_bounds(len(block), chunk_size):
                yield block[s:t]


def dense_chunk_count(ma: int, mb: int, chunk_size: int) -> int:
    """Number of chunks :func:`iter_kron_product` emits for ``ma x mb``.

    Mirrors the iterator's chunking decision (whole A-edges per chunk when
    they fit, sub-chunks of one A-edge's expansion when ``mb > chunk_size``)
    so the streaming generator can agree on a round count up front.
    """
    if ma == 0 or mb == 0:
        return 0
    if chunk_size >= mb:
        return -(-ma // (chunk_size // mb))
    return ma * -(-mb // chunk_size)


# --------------------------------------------------------------------- #
# Fused generation -> routing (the Section III hot path)
# --------------------------------------------------------------------- #
#
# Under the ``source_block`` storage map the owner of a product edge depends
# only on its source ``src = i * n_B + k`` (A-edge source ``i``, B-edge
# source ``k``): owner boundaries are vertex ranges, so for a *fixed* A-edge
# the owner is monotone in ``k``.  Sorting B's edges by source once (B is
# replicated and tiny; the sort is amortized across every expansion that
# reuses the plan) turns per-pair owner assignment into ``nparts``
# searchsorted boundaries per A-edge: each A-edge's partners in owner ``d``
# are one *window* of sorted B.  Consecutive A-edges with the same window
# form a run, and a run's share of the product is a dense outer product --
# two broadcast adds straight into the owner's slice, with no product-sized
# sort, gather or index temporary of any kind.


@dataclass(frozen=True)
class RoutePlanB:
    """Reusable routing precomputation for a replicated factor B.

    Attributes
    ----------
    rows:
        B's edges stably sorted by source, ``(m_B, 2)`` in column-major
        order, so each endpoint column is contiguous for the searchsorted
        and the broadcast adds.  Stored in the product's id dtype, which
        is therefore the dtype of every slice the plan expands.
    """

    rows: np.ndarray


def plan_route_b(edges_b: np.ndarray, n_c: int | None = None) -> RoutePlanB:
    """Build the per-factor routing plan (one small sort of ``m_B`` keys)
    for a product of ``n_c`` vertices (:func:`id_dtype`)."""
    edges_b = np.asarray(edges_b, dtype=np.int64).reshape(-1, 2)
    order = np.argsort(edges_b[:, 0], kind="stable")
    return RoutePlanB(np.asfortranarray(edges_b[order], dtype=id_dtype(n_c)))


def _routed_positions(
    src_a: np.ndarray, plan: RoutePlanB, n_b: int, bounds: np.ndarray
) -> np.ndarray:
    """Per-(A-edge, owner) bucket boundaries into the sorted B order.

    ``pos[t, d]`` is the first sorted-B position whose pair with A-edge ``t``
    lands in owner ``d`` or later: the pair ``(t, s)`` has product source
    ``src_a[t] * n_b + rows[s, 0]``, owned by ``d`` iff that value falls in
    ``[bounds[d], bounds[d+1])``.  The thresholds stay ``int64``: they
    may fall below 0 or past ``n_C``.
    """
    thresholds = bounds[None, :] - src_a[:, None] * np.int64(n_b)
    pos = np.searchsorted(plan.rows[:, 0], thresholds.ravel(), side="left")
    return pos.reshape(len(src_a), len(bounds))


def _routed_bucket_rows(
    edges_a: np.ndarray, plan: RoutePlanB, pos: np.ndarray, d: int, n_b: int
) -> np.ndarray:
    """Materialize owner ``d``'s slice of the A-block x B product.

    The slice is the concatenation, A-edge major, of each A-edge's window
    ``pos[t, d] <= s < pos[t, d+1]`` of sorted B.  The A-edges with a
    non-empty window are split into maximal runs sharing one window; a run
    is then a dense ``(run, window)`` outer product, written with one
    broadcast add per endpoint into its view of the slice.  When owner
    bounds fall on factor rows every window is all of B and each owner is
    one run; only an A-source straddling a bound (at most ``nparts - 1``
    per call) yields partial windows and further runs.  The slice and its
    adds are in the plan's id dtype: every operand and sum is below n_C.
    """
    sel = np.flatnonzero(pos[:, d + 1] > pos[:, d])
    lo, hi = pos[sel, d], pos[sel, d + 1]
    dtype = plan.rows.dtype
    out = np.empty((int((hi - lo).sum()), 2), dtype=dtype)
    starts = np.flatnonzero(
        (np.diff(lo, prepend=-1) != 0) | (np.diff(hi, prepend=-1) != 0)
    )
    fill = 0
    for s, t in zip(starts, [*starts[1:], len(sel)]):
        p0, p1 = lo[s], hi[s]
        rows = edges_a[sel[s:t]]
        size = (t - s) * (p1 - p0)
        view = out[fill : fill + size].reshape(t - s, p1 - p0, 2)
        for col in (0, 1):
            base = (rows[:, col] * np.int64(n_b)).astype(dtype, copy=False)
            np.add(
                base[:, None], plan.rows[None, p0:p1, col], out=view[:, :, col]
            )
        fill += size
    return out


def kron_edge_block_routed(
    edges_a: np.ndarray,
    edges_b: np.ndarray,
    n_b: int,
    nparts: int,
    n_c: int,
    plan: RoutePlanB | None = None,
) -> list[np.ndarray]:
    """Outer product of two edge blocks, emitted pre-bucketed by owner.

    Routed counterpart of :func:`kron_edge_block` for the ``source_block``
    storage map over ``nparts`` owners of the ``n_c``-vertex product: returns
    ``nparts`` blocks whose concatenation is a permutation of the dense
    expansion, with block ``d`` holding exactly the pairs whose product
    source falls in owner ``d``'s vertex range.  Cost is
    O(output + len(a) * nparts); no product-sized sort is performed.
    Blocks are in :func:`id_dtype` of ``n_c``.

    Pass a precomputed ``plan`` (:func:`plan_route_b` for the same
    ``n_c``) to amortize B's one small sort across many expansions of the
    same replicated factor.
    """
    from repro.distributed.partition import vertex_block_bounds

    if len(edges_a) == 0 or len(edges_b) == 0:
        return [np.empty((0, 2), dtype=id_dtype(n_c)) for _ in range(nparts)]
    edges_a = np.asarray(edges_a, dtype=np.int64).reshape(-1, 2)
    if plan is None:
        plan = plan_route_b(edges_b, n_c)
    bounds = vertex_block_bounds(n_c, nparts)
    pos = _routed_positions(edges_a[:, 0], plan, n_b, bounds)
    return [
        _routed_bucket_rows(edges_a, plan, pos, d, n_b) for d in range(nparts)
    ]


def kron_routed_full(
    el_a: EdgeList,
    el_b: EdgeList,
    nparts: int,
    n_c: int,
    chunk_size: int = DEFAULT_CHUNK,
) -> list[np.ndarray]:
    """Full routed product ``A (x) B``: exact-size per-owner arrays.

    Row for row the concatenation of every chunk of
    :func:`iter_kron_product_routed`: the routed block kernel over the
    whole cell.  Each owner's slice is allocated once at its exact size
    and written by run-wise broadcast adds, with nothing product-sized
    besides it, so there is nothing for ``chunk_size`` to bound.  It is
    accepted and ignored so that callers hand the batch and the streaming
    kernel the same positional arguments, as the generator's ``_pieces``
    and the ledger's layer pass (``benchmarks/ledger/gen.py``) both do.
    """
    return kron_edge_block_routed(el_a.edges, el_b.edges, el_b.n, nparts, n_c)


def iter_kron_product_routed(
    el_a: EdgeList,
    el_b: EdgeList,
    nparts: int,
    n_c: int,
    chunk_size: int = DEFAULT_CHUNK,
) -> Iterator[list[np.ndarray]]:
    """Stream the routed product: one per-owner bucket list per A-chunk.

    Each yield covers ``max(1, chunk_size // m_B)`` A-edges' full expansion,
    split by owner; chunks therefore hold at most ``max(chunk_size, m_B)``
    edges (a single A-edge's expansion is never split, unlike
    :func:`iter_kron_product`, because routing operates on whole B).  The
    pipelined generator exchanges each yield immediately -- the paper's
    send-as-you-generate shape with the bucketing cost fused away.
    """
    ma, mb = el_a.m_directed, el_b.m_directed
    if ma == 0 or mb == 0:
        return
    plan = plan_route_b(el_b.edges, n_c)
    a_per_chunk = max(1, chunk_size // mb)
    for a_start, a_stop in chunk_bounds(ma, a_per_chunk):
        yield kron_edge_block_routed(
            el_a.edges[a_start:a_stop], el_b.edges, el_b.n, nparts, n_c, plan
        )


def routed_chunk_count(ma: int, mb: int, chunk_size: int) -> int:
    """Number of chunks :func:`iter_kron_product_routed` emits."""
    if ma == 0 or mb == 0:
        return 0
    return -(-ma // max(1, chunk_size // mb))


def kron_power(el: EdgeList, k: int) -> EdgeList:
    """Iterated product ``A (x) A (x) ... (x) A`` (``k`` factors).

    ``k = 1`` returns the input unchanged.  Mirrors the repeated-squaring
    usage of Kronecker benchmarks (the paper's ``C = A (x) A`` experiments
    are ``k = 2``).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    out = el
    for _ in range(k - 1):
        out = kron_product(out, el)
    return out
