"""Edge and vertex partitioning schemes (Section III and Remark 1).

**1-D scheme** (the paper's primary implementation): the edges of factor A
are split evenly across the ``R`` processors and B is replicated, so rank
``r`` generates ``C_r = A_r (x) B``.  Per-rank storage is
``O(|E_A|/R + |E_B|)`` and parallelism is capped at ``|E_A|`` ranks -- the
scalability limit Remark 1 identifies.

**2-D scheme** (Remark 1's fix): with ``R_half = ceil(sqrt(R))``, split A
into ``R_half`` parts and B into ``ceil(R / R_half)`` parts; rank ``r``
generates ``A_{r % R_half} (x) B_{r // R_half}``, enabling up to
``|E_A| |E_B| = |E_C|`` ranks and weak scaling.

Vertex-to-owner maps (block and hash) decide where generated product edges
are *stored*, independent of where they are generated -- the modularity the
paper calls out.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import PartitionError
from repro.graph.edgelist import EdgeList
from repro.util.hashing import EdgeHasher

__all__ = [
    "partition_edges_1d",
    "grid_shape_2d",
    "partition_edges_2d",
    "owners_by_vertex_block",
    "vertex_block_bounds",
    "owners_by_edge_hash",
]


def partition_edges_1d(el: EdgeList, nparts: int) -> list[EdgeList]:
    """Even contiguous split of the edge rows into ``nparts`` shards.

    Each shard keeps the full vertex id space (``n`` unchanged) -- shard
    ``r`` is the paper's ``A_r`` with ``A = sum_r A_r``.
    """
    if nparts < 1:
        raise PartitionError(f"nparts must be >= 1, got {nparts}")
    bounds = np.linspace(0, el.m_directed, nparts + 1).astype(np.int64)
    return [
        EdgeList(el.edges[bounds[r] : bounds[r + 1]], el.n)
        for r in range(nparts)
    ]


def grid_shape_2d(nranks: int) -> tuple[int, int]:
    """Remark 1's grid: ``(R_half, ceil(R / R_half))`` with ``R_half = ceil(sqrt(R))``.

    The grid has at least ``nranks`` cells; :func:`partition_edges_2d`
    folds any surplus cells back onto ranks so coverage is always exact.
    """
    if nranks < 1:
        raise PartitionError(f"nranks must be >= 1, got {nranks}")
    r_half = math.isqrt(nranks)
    if r_half * r_half < nranks:
        r_half += 1
    return r_half, math.ceil(nranks / r_half)


def partition_edges_2d(
    el_a: EdgeList, el_b: EdgeList, nranks: int
) -> list[list[tuple[EdgeList, EdgeList]]]:
    """Per-rank generation cells under the 2-D scheme.

    The canonical assignment gives cell ``c`` of the ``R_half x R_b`` grid
    -- the pair ``(A_{c % R_half}, B_{c // R_half})`` -- to rank
    ``c % nranks``.  For square worlds (``nranks == R_half * R_b``) every
    rank gets exactly one cell, matching Remark 1 verbatim; otherwise the
    trailing cells fold onto ranks round-robin so that the union of all
    per-rank products is exactly ``A (x) B``, each cell generated once.

    Returns a length-``nranks`` list of per-rank cell lists.
    """
    r_half, r_b = grid_shape_2d(nranks)
    parts_a = partition_edges_1d(el_a, r_half)
    parts_b = partition_edges_1d(el_b, r_b)
    assignments: list[list[tuple[EdgeList, EdgeList]]] = [
        [] for _ in range(nranks)
    ]
    for c in range(r_half * r_b):
        assignments[c % nranks].append((parts_a[c % r_half], parts_b[c // r_half]))
    return assignments


def owners_by_vertex_block(vertices: np.ndarray, n: int, nparts: int) -> np.ndarray:
    """Block map: vertex ``v`` is owned by ``v * nparts // n`` (contiguous ranges)."""
    if nparts < 1 or n < 1:
        raise PartitionError("n and nparts must be >= 1")
    v = np.asarray(vertices, dtype=np.int64)
    return (v * nparts) // n


def vertex_block_bounds(n: int, nparts: int) -> np.ndarray:
    """Vertex-range boundaries of the block map, inverse of
    :func:`owners_by_vertex_block`.

    Returns the ``(nparts + 1,)`` int64 array ``bounds`` with rank ``d``
    owning exactly the vertices ``bounds[d] <= v < bounds[d + 1]``:
    ``bounds[d] = ceil(d * n / nparts)``.  The routed generation kernel uses
    these boundaries to assign owners analytically instead of evaluating the
    owner map per product edge.
    """
    if nparts < 1 or n < 1:
        raise PartitionError("n and nparts must be >= 1")
    d = np.arange(nparts + 1, dtype=np.int64)
    return -(-(d * np.int64(n)) // np.int64(nparts))


def owners_by_edge_hash(edges: np.ndarray, nparts: int, seed: int = 0) -> np.ndarray:
    """Hash map: edge ``(u, v)`` is owned by ``hash(u, v) % nparts``.

    Symmetric (direction-independent) so both directions of an undirected
    edge land on the same owner.  The body is
    :meth:`repro.util.hashing.EdgeHasher.owner`, in ``int64``.  The id
    columns are hashed in the dtype they come in (the tile load casts by
    value), so ``int32`` and ``int64`` ids own alike.
    """
    if nparts < 1:
        raise PartitionError(f"nparts must be >= 1, got {nparts}")
    e = np.asarray(edges).reshape(-1, 2)
    return EdgeHasher(seed).owner(e[:, 0], e[:, 1], nparts)
