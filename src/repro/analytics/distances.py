"""Direct distance analytics: hop matrices, eccentricity, diameter, closeness.

These are the "known trusted implementation" side of the paper's validation
story: expensive direct computations on a materialized graph, against which
the sublinear Kronecker formulas of :mod:`repro.groundtruth` are checked.
All-pairs routines cost the O(|V||E|) BFS volume the paper cites, but run
through the batched multi-source kernel
(:func:`repro.analytics.bfs.bfs_levels_multi`): K sources advance per
vectorized sweep instead of one Python BFS per vertex.  BFS levels are
canonical, so the hop counts are bit-identical to the single-source
kernel's, which ``tests/unit/test_bfs_multi.py`` pins vertex by vertex.
"""

from __future__ import annotations

import numpy as np

from repro.analytics.bfs import UNREACHABLE, bfs_hops_multi
from repro.errors import AssumptionError
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList

__all__ = [
    "hop_matrix",
    "hop_matrix_def9",
    "eccentricities",
    "diameter",
    "closeness_centralities",
    "closeness_from_hops",
]

#: Sources per batched sweep for the all-pairs drivers: large enough to
#: amortize per-level numpy dispatch, small enough to keep the dense
#: frontier planes cache-resident on factor-scale graphs.
_BATCH = 256


def _as_csr(g: EdgeList | CSRGraph) -> CSRGraph:
    return g if isinstance(g, CSRGraph) else CSRGraph.from_edgelist(g)


def hop_matrix(
    g: EdgeList | CSRGraph,
    *,
    selfloop_convention: bool = True,
) -> np.ndarray:
    """All-pairs hop counts (Def. 9 convention by default).

    Returns an ``(n, n)`` int64 matrix with ``-1`` marking unreachable
    pairs.  Memory is O(n^2); use only on factor-scale graphs.
    """
    return bfs_hops_multi(
        _as_csr(g), selfloop_convention=selfloop_convention, batch=_BATCH
    )


def hop_matrix_def9(g: EdgeList | CSRGraph) -> np.ndarray:
    """All-pairs hops per Def. 9's walk semantics on any undirected graph.

    ``hops(i, j) = min { h >= 1 : (A^h)_{ij} > 0 }``.  For ``i != j`` this
    is the BFS distance (a shortest walk is a shortest path, and on
    undirected graphs every longer-parity walk exists once any walk does is
    irrelevant to the minimum).  On the diagonal: 1 with a self loop, else 2
    when ``deg(i) >= 1`` (out-and-back walk), else unreachable.  Matches
    :func:`hop_matrix` exactly when every vertex has a self loop.
    """
    csr = _as_csr(g)
    out = hop_matrix(csr, selfloop_convention=False)
    loops = csr.self_loop_mask()
    deg = csr.degrees()
    diag = np.where(loops, 1, np.where(deg >= 1, 2, UNREACHABLE))
    np.fill_diagonal(out, diag)
    return out


def eccentricities(
    g: EdgeList | CSRGraph,
    *,
    selfloop_convention: bool = True,
) -> np.ndarray:
    """Exact vertex eccentricities (Def. 11).

    Batches of sources are swept together and reduced row-wise, so memory
    stays at O(n * batch) rather than the full hop matrix.  Raises
    :class:`AssumptionError` if the graph is disconnected, where
    eccentricity is undefined (infinite).
    """
    csr = _as_csr(g)
    out = np.empty(csr.n, dtype=np.int64)
    for start in range(0, csr.n, _BATCH):
        cols = np.arange(start, min(start + _BATCH, csr.n), dtype=np.int64)
        hops = bfs_hops_multi(
            csr, cols, selfloop_convention=selfloop_convention, batch=_BATCH
        )
        if np.any(hops == UNREACHABLE):
            raise AssumptionError(
                "eccentricity undefined on a disconnected graph"
            )
        out[cols] = hops.max(axis=1)
    return out


def diameter(g: EdgeList | CSRGraph) -> int:
    """Exact diameter ``max_{i,j} hops(i, j)`` (Def. 10)."""
    return int(eccentricities(g).max())


def closeness_from_hops(hops: np.ndarray) -> float:
    """The paper's closeness (Def. 12): ``sum_j 1 / hops(i, j)``.

    Note the paper's definition *includes* ``j = i``; under the self-loop
    convention ``hops(i, i) = 1`` contributes 1 to the sum.  Zero hop counts
    (source without a self loop) and unreachable vertices contribute 0.
    """
    h = np.asarray(hops, dtype=np.float64)
    valid = h > 0
    return float(np.sum(1.0 / h[valid]))


def _closeness_rows(hops: np.ndarray) -> np.ndarray:
    """Row-wise Def. 12 closeness of a hop-count matrix."""
    h = hops.astype(np.float64)
    recip = np.zeros_like(h)
    np.divide(1.0, h, out=recip, where=h > 0)
    return recip.sum(axis=1)


def closeness_centralities(
    g: EdgeList | CSRGraph,
    *,
    selfloop_convention: bool = True,
) -> np.ndarray:
    """Exact closeness centrality of every vertex.

    Like :func:`eccentricities`, sweeps batches of sources through the
    multi-source BFS kernel and reduces each row immediately.
    """
    csr = _as_csr(g)
    out = np.empty(csr.n, dtype=np.float64)
    for start in range(0, csr.n, _BATCH):
        cols = np.arange(start, min(start + _BATCH, csr.n), dtype=np.int64)
        hops = bfs_hops_multi(
            csr, cols, selfloop_convention=selfloop_convention, batch=_BATCH
        )
        out[cols] = _closeness_rows(hops)
    return out
