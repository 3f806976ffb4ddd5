"""Multi-factor Kronecker products ``C = A_1 (x) A_2 (x) ... (x) A_k``.

Graph500-class benchmarks are built from *iterated* Kronecker products, and
every two-factor ground-truth formula in the paper composes associatively to
``k`` factors.  This module provides the k-factor index maps (mixed-radix
positional coordinates) and a lazy :class:`KroneckerPowerGraph`, mirroring
:class:`repro.kronecker.lazy.KroneckerGraph` with factor lists.

Index convention: a product vertex ``p`` decomposes into coordinates
``(c_1, ..., c_k)`` with ``c_1`` most significant:

.. math::

    p = ((c_1 n_2 + c_2) n_3 + c_3) \\cdots

which reduces to ``gamma`` / ``alpha`` / ``beta`` for ``k = 2``.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import reduce

import numpy as np

from repro.errors import GraphFormatError, VertexRangeError
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.kronecker.product import DEFAULT_CHUNK, iter_kron_product, kron_product

__all__ = [
    "multi_split",
    "multi_combine",
    "kron_product_many",
    "KroneckerPowerGraph",
]


def _check_factors(factors: Sequence[EdgeList]) -> list[EdgeList]:
    if len(factors) == 0:
        raise GraphFormatError("need at least one factor")
    return list(factors)


def multi_split(p: np.ndarray | int, sizes: Sequence[int]) -> list[np.ndarray]:
    """Decompose product ids into per-factor coordinates (most significant first).

    ``sizes`` are the factor vertex counts ``(n_1, ..., n_k)``.
    """
    coords: list[np.ndarray] = []
    rest = np.asarray(p, dtype=np.int64)
    for n in reversed(sizes[1:]):
        rest, c = np.divmod(rest, np.int64(n))
        coords.append(c)
    coords.append(rest)
    return coords[::-1]


def multi_combine(coords: Sequence[np.ndarray | int], sizes: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`multi_split`."""
    if len(coords) != len(sizes):
        raise GraphFormatError(
            f"{len(coords)} coordinates for {len(sizes)} factors"
        )
    out = np.asarray(coords[0], dtype=np.int64)
    for c, n in zip(coords[1:], sizes[1:]):
        out = out * np.int64(n) + np.asarray(c, dtype=np.int64)
    return out


def kron_product_many(factors: Sequence[EdgeList]) -> EdgeList:
    """Materialize the k-fold product by left-folding :func:`kron_product`.

    Associativity of the Kronecker product makes the fold order irrelevant
    to the result (up to the fixed index convention above).
    """
    factors = _check_factors(factors)
    return reduce(kron_product, factors)


class KroneckerPowerGraph:
    """Lazy k-factor product with sublinear storage.

    Generalizes :class:`~repro.kronecker.lazy.KroneckerGraph`: storage is
    the sum of factor sizes while the product has the *product* of factor
    edge counts -- the compression ratio grows with every factor.  Like it,
    every local query refuses a vertex id outside ``[0, n)`` with
    :class:`~repro.errors.VertexRangeError`: the mixed-radix split would
    alias it onto another vertex (``-1`` onto ``n - 1``).
    """

    def __init__(self, factors: Sequence[EdgeList]) -> None:
        self.factors = [f.deduplicate() for f in _check_factors(factors)]
        self.csrs = [CSRGraph.from_edgelist(f) for f in self.factors]
        self.sizes = [f.n for f in self.factors]
        self._loop_masks = [c.self_loop_mask() for c in self.csrs]

    # ------------------------------------------------------------------ #
    # global counts
    # ------------------------------------------------------------------ #
    @property
    def k(self) -> int:
        """Number of factors."""
        return len(self.factors)

    @property
    def n(self) -> int:
        """``n_C = prod n_i``."""
        return int(np.prod([f.n for f in self.factors], dtype=object))

    @property
    def m_directed(self) -> int:
        """``|E_C| = prod |E_i|`` (directed rows)."""
        return int(np.prod([f.m_directed for f in self.factors], dtype=object))

    @property
    def num_self_loops(self) -> int:
        """Product of per-factor loop counts."""
        return int(
            np.prod([int(m.sum()) for m in self._loop_masks], dtype=object)
        )

    @property
    def num_undirected_edges(self) -> int:
        """The paper's ``m`` for the product (requires symmetric factors)."""
        return (self.m_directed - self.num_self_loops) // 2

    # ------------------------------------------------------------------ #
    # local queries
    # ------------------------------------------------------------------ #
    def split_vertex(self, p: np.ndarray | int) -> list[np.ndarray]:
        """Per-factor coordinates of product vertices."""
        return multi_split(p, self.sizes)

    def combine_vertex(self, coords: Sequence[np.ndarray | int]) -> np.ndarray:
        """Product ids from per-factor coordinates."""
        return multi_combine(coords, self.sizes)

    def _check_ids(self, *ids: np.ndarray | int) -> None:
        for v in map(np.asarray, ids):
            if v.size and (v.min() < 0 or v.max() >= self.n):
                raise VertexRangeError(f"vertex ids outside 0..{self.n - 1}")

    def has_edge(self, p: int, q: int) -> bool:
        """``C_pq = prod_i (A_i)_{c_i(p), c_i(q)}``."""
        self._check_ids(p, q)
        cp = self.split_vertex(int(p))
        cq = self.split_vertex(int(q))
        return all(
            csr.has_edge(int(i), int(j))
            for csr, i, j in zip(self.csrs, cp, cq)
        )

    def degree(self, p: np.ndarray | int) -> np.ndarray:
        """Non-loop degree of product vertices (vectorized over ``p``)."""
        self._check_ids(p)
        coords = self.split_vertex(np.asarray(p))
        dtot = np.ones_like(np.asarray(p, dtype=np.int64))
        loop = np.ones_like(dtot, dtype=bool)
        for csr, mask, c in zip(self.csrs, self._loop_masks, coords):
            dtot = dtot * csr.degrees_total()[c]
            loop &= mask[c]
        return dtot - loop.astype(np.int64)

    def degrees(self) -> np.ndarray:
        """Degree of every product vertex: iterated ``np.kron`` of factors."""
        dtot = reduce(np.kron, [c.degrees_total() for c in self.csrs])
        loops = reduce(
            np.kron, [m.astype(np.int64) for m in self._loop_masks]
        )
        return dtot - loops

    # ------------------------------------------------------------------ #
    # materialization
    # ------------------------------------------------------------------ #
    def to_edgelist(self) -> EdgeList:
        """Materialize the full k-fold product."""
        return kron_product_many(self.factors)

    def iter_edges(self, chunk_size: int = DEFAULT_CHUNK) -> Iterator[np.ndarray]:
        """Stream the product in bounded chunks.

        The first ``k - 1`` factors are folded into an intermediate product
        (small relative to the final expansion when the last factor is
        non-trivial); the final expansion streams chunked.
        """
        if self.k == 1:
            yield self.factors[0].edges
            return
        head = kron_product_many(self.factors[:-1])
        yield from iter_kron_product(head, self.factors[-1], chunk_size)

    def __repr__(self) -> str:
        return (
            f"KroneckerPowerGraph(k={self.k}, n={self.n}, "
            f"m_directed={self.m_directed})"
        )
