"""Factor-graph generators.

Nonstochastic Kronecker benchmarks start from *small* factors with known
structure; this module provides the deterministic families used throughout
the paper's examples (cliques, cycles, stars, disjoint cliques for Ex. 1) and
the random families used in its evaluation framing (Erdos-Renyi, stochastic
block models for Section VI, Chung-Lu power-law graphs as scale-free stand-ins,
and R-MAT -- the *stochastic* Kronecker generator the paper contrasts with).

All generators return a symmetric :class:`~repro.graph.edgelist.EdgeList`
containing both directions of every undirected edge and **no self loops**
(add them explicitly with :meth:`EdgeList.with_full_self_loops`, mirroring the
paper's ``A + I_A`` notation).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.edgelist import EdgeList
from repro.util.validation import check_positive_int, check_probability

__all__ = [
    "empty_graph",
    "clique",
    "cycle",
    "path",
    "star",
    "grid_2d",
    "disjoint_cliques",
    "erdos_renyi",
    "stochastic_block_model",
    "chung_lu",
    "rmat",
    "directed_cycle",
    "directed_erdos_renyi",
    "complete_with_loops",
]


def _undirected_pairs_to_edgelist(u: np.ndarray, v: np.ndarray, n: int) -> EdgeList:
    """Symmetrize unique non-loop pairs ``(u, v)`` into an EdgeList."""
    keep = u != v
    u, v = u[keep], v[keep]
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    pairs = np.unique(np.column_stack([lo, hi]), axis=0)
    both = np.vstack([pairs, pairs[:, ::-1]])
    return EdgeList(both, n)


# --------------------------------------------------------------------- #
# deterministic families
# --------------------------------------------------------------------- #
def empty_graph(n: int) -> EdgeList:
    """``n`` isolated vertices."""
    if n < 0:
        raise GraphFormatError(f"n must be >= 0, got {n}")
    return EdgeList(np.empty((0, 2), dtype=np.int64), n)


def clique(n: int) -> EdgeList:
    """Complete graph ``K_n`` (no self loops)."""
    n = check_positive_int(n, "n")
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    return EdgeList(np.column_stack([i, j]).astype(np.int64), n)


def cycle(n: int) -> EdgeList:
    """Cycle ``C_n`` for ``n >= 3``."""
    n = check_positive_int(n, "n")
    if n < 3:
        raise GraphFormatError(f"cycle needs n >= 3, got {n}")
    u = np.arange(n, dtype=np.int64)
    v = (u + 1) % n
    return _undirected_pairs_to_edgelist(u, v, n)


def path(n: int) -> EdgeList:
    """Path ``P_n`` on ``n`` vertices (``n - 1`` edges)."""
    n = check_positive_int(n, "n")
    u = np.arange(n - 1, dtype=np.int64)
    return _undirected_pairs_to_edgelist(u, u + 1, n)


def star(n: int) -> EdgeList:
    """Star with hub ``0`` and ``n - 1`` leaves."""
    n = check_positive_int(n, "n")
    leaves = np.arange(1, n, dtype=np.int64)
    hub = np.zeros(n - 1, dtype=np.int64)
    return _undirected_pairs_to_edgelist(hub, leaves, n)


def grid_2d(rows: int, cols: int) -> EdgeList:
    """``rows x cols`` 4-neighbor lattice."""
    rows = check_positive_int(rows, "rows")
    cols = check_positive_int(cols, "cols")
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    horiz_u = ids[:, :-1].ravel()
    horiz_v = ids[:, 1:].ravel()
    vert_u = ids[:-1, :].ravel()
    vert_v = ids[1:, :].ravel()
    u = np.concatenate([horiz_u, vert_u])
    v = np.concatenate([horiz_v, vert_v])
    return _undirected_pairs_to_edgelist(u, v, rows * cols)


def disjoint_cliques(num_cliques: int, clique_size: int) -> EdgeList:
    """``x`` disjoint cliques of size ``y`` (the paper's Ex. 1 factor).

    The Kronecker product of two such graphs (with full self loops added)
    is again disjoint cliques, with ``x_A * x_B`` cliques of size
    ``y_A * y_B``.
    """
    x = check_positive_int(num_cliques, "num_cliques")
    y = check_positive_int(clique_size, "clique_size")
    base = clique(y).edges if y > 1 else np.empty((0, 2), dtype=np.int64)
    blocks = [base + k * y for k in range(x)]
    edges = np.vstack(blocks) if blocks else np.empty((0, 2), dtype=np.int64)
    return EdgeList(edges, x * y)


# --------------------------------------------------------------------- #
# random families
# --------------------------------------------------------------------- #
def erdos_renyi(n: int, p: float, seed: int | None = None) -> EdgeList:
    """G(n, p): each unordered non-loop pair is an edge with probability ``p``."""
    n = check_positive_int(n, "n")
    p = check_probability(p, "p")
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < p
    return _undirected_pairs_to_edgelist(
        iu[keep].astype(np.int64), ju[keep].astype(np.int64), n
    )


def stochastic_block_model(
    block_sizes: list[int] | np.ndarray,
    p_in: float,
    p_out: float,
    seed: int | None = None,
) -> EdgeList:
    """SBM with per-block internal probability ``p_in``, external ``p_out``.

    This is the factor family of Section VI's Ex. 1 generalization: products
    of SBM factors have Kronecker communities with densities near
    ``p_in**2`` / ``p_out**2``.
    """
    sizes = np.asarray(block_sizes, dtype=np.int64)
    if sizes.ndim != 1 or len(sizes) == 0 or sizes.min() <= 0:
        raise GraphFormatError("block_sizes must be a non-empty positive vector")
    p_in = check_probability(p_in, "p_in")
    p_out = check_probability(p_out, "p_out")
    n = int(sizes.sum())
    labels = np.repeat(np.arange(len(sizes)), sizes)
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    same = labels[iu] == labels[ju]
    prob = np.where(same, p_in, p_out)
    keep = rng.random(len(iu)) < prob
    return _undirected_pairs_to_edgelist(
        iu[keep].astype(np.int64), ju[keep].astype(np.int64), n
    )


def chung_lu(
    degrees: np.ndarray | list[int], seed: int | None = None
) -> EdgeList:
    """Chung-Lu random graph with expected degree sequence ``degrees``.

    Pair ``(i, j)`` is an edge with probability
    ``min(1, w_i * w_j / sum(w))``.  Used as the scale-free factor family
    (heavy-tailed degrees, small diameter) standing in for real-world
    graphs like the paper's gnutella08.
    """
    w = np.asarray(degrees, dtype=np.float64)
    if w.ndim != 1 or len(w) == 0 or w.min() < 0:
        raise GraphFormatError("degrees must be a non-negative vector")
    total = w.sum()
    if total <= 0:
        return empty_graph(len(w))
    rng = np.random.default_rng(seed)
    n = len(w)
    iu, ju = np.triu_indices(n, k=1)
    prob = np.minimum(1.0, w[iu] * w[ju] / total)
    keep = rng.random(len(iu)) < prob
    return _undirected_pairs_to_edgelist(
        iu[keep].astype(np.int64), ju[keep].astype(np.int64), n
    )


def rmat(
    scale: int,
    edge_factor: int = 16,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int | None = None,
) -> EdgeList:
    """R-MAT / stochastic-Kronecker generator (Graph500 style).

    Recursively places ``edge_factor * 2**scale`` directed edge samples into
    the quadrants of a ``2**scale`` adjacency matrix with probabilities
    ``(a, b, c, d = 1 - a - b - c)``, then symmetrizes and deduplicates.

    This is the *stochastic* generator the paper contrasts with: exact
    properties are unknown until generation completes.  Included as the
    baseline class for the generation benchmarks.
    """
    scale = check_positive_int(scale, "scale")
    edge_factor = check_positive_int(edge_factor, "edge_factor")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise ValueError(f"quadrant probabilities must be >= 0, got d={d:.3f}")
    n = 1 << scale
    m = edge_factor * n
    rng = np.random.default_rng(seed)
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    # Vectorized recursive descent: one uniform draw per (edge, level).
    thresholds = np.array([a, a + b, a + b + c])
    for _level in range(scale):
        r = rng.random(m)
        right = (r >= thresholds[0]) & (r < thresholds[1])
        down = (r >= thresholds[1]) & (r < thresholds[2])
        diag = r >= thresholds[2]
        src = (src << 1) | (down | diag)
        dst = (dst << 1) | (right | diag)
    return _undirected_pairs_to_edgelist(src, dst, n)


# --------------------------------------------------------------------- #
# directed families (Section V's distance results hold for digraphs too)
# --------------------------------------------------------------------- #
def directed_cycle(n: int) -> EdgeList:
    """Directed cycle ``0 -> 1 -> ... -> n-1 -> 0`` (strongly connected)."""
    n = check_positive_int(n, "n")
    if n < 2:
        raise GraphFormatError(f"directed cycle needs n >= 2, got {n}")
    u = np.arange(n, dtype=np.int64)
    return EdgeList(np.column_stack([u, (u + 1) % n]), n)


def complete_with_loops(n: int) -> EdgeList:
    """All ``n**2`` ordered pairs, self loops included.

    The Kronecker product of two such graphs enumerates every ordered
    vertex pair of the product exactly once -- the candidate space of the
    stochastic tier (:mod:`repro.skg`), which names an SKG run and feeds
    its candidate filter.
    """
    n = check_positive_int(n, "n")
    i = np.repeat(np.arange(n, dtype=np.int64), n)
    j = np.tile(np.arange(n, dtype=np.int64), n)
    return EdgeList(np.column_stack([i, j]), n)


def directed_erdos_renyi(n: int, p: float, seed: int | None = None) -> EdgeList:
    """Directed G(n, p): each ordered non-loop pair independently an edge."""
    n = check_positive_int(n, "n")
    p = check_probability(p, "p")
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    u, v = np.nonzero(mask)
    return EdgeList(
        np.column_stack([u.astype(np.int64), v.astype(np.int64)]), n
    )
