"""Connected components, fully vectorized.

Used for the paper's preprocessing step ("the undirected version of the
largest connected component") and for sanity checks before distance
analytics, which assume connectivity.

The primary implementation hands the adjacency to
``scipy.sparse.csgraph.connected_components`` (a C traversal, no per-edge
Python work) and deterministically relabels components in order of their
smallest vertex id.  It replaces the former per-edge Python union-find
loop, which dominated preprocessing on anything larger than a toy factor.
"""

from __future__ import annotations

import numpy as np

from repro.graph.edgelist import EdgeList

__all__ = ["connected_components", "num_components", "is_connected", "is_bipartite"]


def _relabel_by_min_vertex(raw: np.ndarray) -> np.ndarray:
    """Compress arbitrary component ids to 0..k-1 by smallest member vertex.

    The first occurrence of a component id while scanning vertices 0..n-1
    is at the component's smallest vertex, so ordering components by first
    occurrence gives the deterministic labeling the public contract
    promises.
    """
    uniq, first, inverse = np.unique(
        raw, return_index=True, return_inverse=True
    )
    remap = np.empty(len(uniq), dtype=np.int64)
    remap[np.argsort(first, kind="stable")] = np.arange(
        len(uniq), dtype=np.int64
    )
    return remap[inverse]


def connected_components(el: EdgeList) -> np.ndarray:
    """Label vertices by connected component (undirected semantics).

    Returns a length-``n`` int64 array of labels in ``0..k-1``; labels are
    assigned in order of each component's smallest vertex id, so results
    are deterministic.
    """
    n = el.n
    if n == 0:
        return np.empty(0, dtype=np.int64)
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components as _cc

    adj = sparse.csr_matrix(
        (np.ones(el.m_directed, dtype=np.int8), (el.src, el.dst)),
        shape=(n, n),
    )
    _, raw = _cc(adj, directed=False)
    return _relabel_by_min_vertex(raw.astype(np.int64))


def num_components(el: EdgeList) -> int:
    """Number of connected components (isolated vertices count)."""
    if el.n == 0:
        return 0
    return int(connected_components(el).max()) + 1


def is_connected(el: EdgeList) -> bool:
    """``True`` iff the graph has exactly one component (and ``n > 0``)."""
    return num_components(el) == 1


def is_bipartite(el: EdgeList) -> bool:
    """2-colorability test by BFS layering on each component.

    Needed for Weichsel's connectivity law: the Kronecker product of two
    connected loop-free graphs is connected iff at least one factor is
    non-bipartite.  A self loop is an odd closed walk, so any loop makes
    the graph non-bipartite.
    """
    if el.num_self_loops:
        return False
    from repro.analytics.bfs import UNREACHABLE, bfs_levels
    from repro.graph.csr import CSRGraph

    csr = CSRGraph.from_edgelist(el)
    color = np.full(el.n, -1, dtype=np.int64)
    for start in range(el.n):
        if color[start] != -1:
            continue
        levels = bfs_levels(csr, start)
        reached = levels != UNREACHABLE
        color[reached] = levels[reached] % 2
    # an edge within one color class is an odd cycle witness
    same = color[el.src] == color[el.dst]
    nonloop = el.src != el.dst
    return not bool(np.any(same & nonloop))
