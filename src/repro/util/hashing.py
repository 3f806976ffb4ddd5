"""Deterministic, vectorized edge hashing.

The probabilistic edge-rejection scheme of the paper (Def. 8) needs a fixed
hash function ``hash(p, q) -> [0, 1)`` over edges so that every processor --
and every later re-generation of the same graph -- agrees on which edges
survive a threshold ``nu``.  We use the splitmix64 finalizer, a well-studied
64-bit mixer with full avalanche, applied to a seed-dependent combination of
the two endpoint ids.

All functions operate on numpy ``uint64`` arrays without Python-level loops,
per the vectorization idioms this project follows for hot paths.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "splitmix64",
    "splitmix64_int",
    "mix_tokens",
    "hash_pair",
    "edges_digest",
    "edge_fingerprint",
    "merge_fingerprints",
    "edge_uniform",
    "EdgeHasher",
]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# 2**64 as a float, for mapping uint64 -> [0, 1).
_TWO64 = float(2**64)


def splitmix64(x: np.ndarray | int) -> np.ndarray:
    """Apply the splitmix64 finalizer to ``x`` (elementwise).

    Parameters
    ----------
    x:
        Scalar or array of non-negative integers; values are taken mod 2**64.

    Returns
    -------
    numpy.ndarray
        ``uint64`` array of mixed values with the same shape as ``x``.
    """
    z = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (z + _GOLDEN).astype(np.uint64)
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        z = z ^ (z >> np.uint64(31))
    return z


_MASK64 = (1 << 64) - 1


def splitmix64_int(x: int) -> int:
    """Scalar, pure-Python splitmix64 finalizer (no numpy round trip).

    Bit-identical to :func:`splitmix64` on the same input; used where a
    cheap deterministic 64-bit mix of small Python integers is needed
    (e.g. the lint cache's schema tags) without paying array overhead.
    """
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_tokens(tokens: "list[str] | tuple[str, ...]", seed: int = 0) -> int:
    """Order-sensitive 64-bit digest of a token sequence.

    Chains :func:`splitmix64_int` over the UTF-8 bytes of each token --
    a deterministic, dependency-free fingerprint for cache keys and
    schema tags.
    """
    h = splitmix64_int(seed)
    for token in tokens:
        for b in token.encode("utf-8"):
            h = splitmix64_int(h ^ b)
        h = splitmix64_int(h ^ len(token))
    return h


def hash_pair(
    u: np.ndarray | int,
    v: np.ndarray | int,
    seed: int = 0,
    *,
    directed: bool = False,
) -> np.ndarray:
    """Hash endpoint pairs to ``uint64``.

    For undirected use (the default) the pair is canonicalized so that
    ``hash_pair(u, v) == hash_pair(v, u)``: an undirected edge must receive a
    single hash value regardless of the direction in which it is generated.

    Parameters
    ----------
    u, v:
        Endpoint id arrays (broadcastable to a common shape).
    seed:
        Stream seed; different seeds give independent hash families.
    directed:
        If ``True``, ``(u, v)`` and ``(v, u)`` hash independently.
    """
    uu = np.asarray(u, dtype=np.uint64)
    vv = np.asarray(v, dtype=np.uint64)
    if not directed:
        lo = np.minimum(uu, vv)
        hi = np.maximum(uu, vv)
        uu, vv = lo, hi
    with np.errstate(over="ignore"):
        h = splitmix64(uu ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
        h = splitmix64(h + vv * _GOLDEN)
    return h


def edges_digest(
    edges: np.ndarray, *, seed: int | None = None, salt: int = 0
) -> int:
    """Order- and shape-sensitive 64-bit digest of an edge array.

    Rows are hashed pairwise (:func:`hash_pair` under ``seed``, by default
    the row count), mixed with their positions so permutations change the
    digest, folded with uint64 wraparound addition (associative,
    vectorized), and finalized together with ``salt`` and the row count.
    A digest match therefore means the array is row for row the original.
    """
    edges = np.ascontiguousarray(edges, dtype=np.int64).reshape(-1, 2)
    m = len(edges)
    with np.errstate(over="ignore"):
        rows = hash_pair(
            edges[:, 0].astype(np.uint64),
            edges[:, 1].astype(np.uint64),
            seed=m if seed is None else seed,
            directed=True,
        )
        positioned = splitmix64(rows ^ splitmix64(np.arange(m, dtype=np.uint64)))
        acc = positioned.sum(dtype=np.uint64)
        return int(splitmix64(acc + np.uint64(salt) + np.uint64(m)))


def edge_fingerprint(edges: np.ndarray) -> int:
    """Order-independent 64-bit fingerprint of an edge *multiset*.

    The wraparound sum of ``splitmix64(hash_pair(u, v))`` over the rows,
    plus the row count.  Any permutation of the same rows matches, and --
    because the fold is a sum -- the fingerprints of the parts of a
    partition add up to the fingerprint of the whole
    (:func:`merge_fingerprints`): ranks fold the shards they hold and
    nobody needs the union in one memory.  A sum, unlike an XOR fold, also
    sees a duplicated row (``x ^ h ^ h == x`` but ``x + 2h != x``).
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    rows = splitmix64(hash_pair(edges[:, 0], edges[:, 1], directed=True))
    return (int(rows.sum(dtype=np.uint64)) + len(edges)) & _MASK64


def merge_fingerprints(parts) -> int:
    """:func:`edge_fingerprint` of a union from those of its disjoint parts."""
    return sum(parts) & _MASK64


def edge_uniform(
    u: np.ndarray | int,
    v: np.ndarray | int,
    seed: int = 0,
    *,
    directed: bool = False,
) -> np.ndarray:
    """Map endpoint pairs to deterministic uniforms in ``[0, 1)``.

    This is the ``hash(p, q)`` of Def. 8 in the paper: the value is a pure
    function of the edge (and ``seed``), so jointly generating the subgraph
    family ``G_{C,nu}`` for several thresholds requires hashing each edge
    once.
    """
    h = hash_pair(u, v, seed, directed=directed)
    return h.astype(np.float64) / _TWO64


class EdgeHasher:
    """A reusable, seeded edge-hash stream.

    Thin convenience wrapper binding ``seed`` and ``directed`` so callers in
    the rejection-family and shuffle code paths do not thread them through
    every call.

    Parameters
    ----------
    seed:
        Hash stream seed.
    directed:
        Whether ``(u, v)`` and ``(v, u)`` are distinct edges.
    """

    __slots__ = ("seed", "directed")

    def __init__(self, seed: int = 0, *, directed: bool = False) -> None:
        self.seed = int(seed)
        self.directed = bool(directed)

    def uniform(self, u: np.ndarray | int, v: np.ndarray | int) -> np.ndarray:
        """Deterministic uniforms in ``[0, 1)`` for the edges ``(u, v)``."""
        return edge_uniform(u, v, self.seed, directed=self.directed)

    def owner(self, u: np.ndarray | int, v: np.ndarray | int, nparts: int) -> np.ndarray:
        """Map edges to one of ``nparts`` owners (for distributed storage)."""
        h = hash_pair(u, v, self.seed, directed=self.directed)
        return (h % np.uint64(nparts)).astype(np.int64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EdgeHasher(seed={self.seed}, directed={self.directed})"
