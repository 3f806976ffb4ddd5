"""Implicit (lazy) Kronecker product graph.

"Nonstochastic Kronecker graphs are highly compressible": the product is
fully determined by its factors, so an object holding just the two factor
adjacencies -- ``O(|E_A| + |E_B|) = O(|E_C|^{1/2})`` storage when the factors
are balanced -- can answer edge queries, neighborhoods, and degrees of the
product without ever materializing ``|E_C| = |E_A| |E_B|`` edges.  This class
is that sublinear data structure; all the ground-truth formulas in
:mod:`repro.groundtruth` produce exact analytics from the same footprint.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.kronecker.indexing import gamma, split
from repro.kronecker.product import DEFAULT_CHUNK, iter_kron_product, kron_product

__all__ = ["KroneckerGraph"]


class KroneckerGraph:
    """The product ``C = A (x) B`` represented by its factors.

    Parameters
    ----------
    factor_a, factor_b:
        Factor edge lists.  They are converted to CSR once; the product is
        never stored.

    Notes
    -----
    Memory is ``O(|E_A| + |E_B|)``; :meth:`has_edge` costs two binary
    searches; :meth:`neighbors` costs the output size; :meth:`iter_edges`
    streams the full product in bounded chunks.
    """

    def __init__(self, factor_a: EdgeList, factor_b: EdgeList) -> None:
        self._el_a = factor_a.deduplicate()
        self._el_b = factor_b.deduplicate()
        self.csr_a = CSRGraph.from_edgelist(self._el_a)
        self.csr_b = CSRGraph.from_edgelist(self._el_b)
        self.n_a = factor_a.n
        self.n_b = factor_b.n
        self._loops_a = self.csr_a.self_loop_mask()
        self._loops_b = self.csr_b.self_loop_mask()
        # Row-major edge keys per factor (src * n + dst over the sorted
        # CSR) -- globally sorted, so *batched* membership is one
        # searchsorted per factor.  Built lazily on the first batch query.
        self._keys_a: np.ndarray | None = None
        self._keys_b: np.ndarray | None = None

    @staticmethod
    def _edge_keys(csr: CSRGraph) -> np.ndarray:
        """Sorted row-major keys ``src * n + dst`` of all CSR edges."""
        src = np.repeat(
            np.arange(csr.n, dtype=np.int64), np.diff(csr.indptr)
        )
        return src * np.int64(csr.n) + csr.indices

    # ------------------------------------------------------------------ #
    # global counts (O(1) after construction)
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Vertex count ``n_C = n_A n_B``."""
        return self.n_a * self.n_b

    @property
    def m_directed(self) -> int:
        """Directed edge count ``|E_C| = |E_A| |E_B|`` (rows, loops included)."""
        return self._el_a.m_directed * self._el_b.m_directed

    @property
    def num_self_loops(self) -> int:
        """Self loops of C: one per (loop in A, loop in B) pair."""
        return int(self._loops_a.sum()) * int(self._loops_b.sum())

    @property
    def num_undirected_edges(self) -> int:
        """The paper's ``m_C`` (non-loop directed rows / 2); needs symmetry."""
        return (self.m_directed - self.num_self_loops) // 2

    # ------------------------------------------------------------------ #
    # local queries
    # ------------------------------------------------------------------ #
    def split_vertex(self, p: int | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Factor coordinates ``(i, k) = (alpha(p), beta(p))``."""
        return split(p, self.n_b)

    def combine_vertex(self, i: int | np.ndarray, k: int | np.ndarray) -> np.ndarray:
        """Product id ``gamma(i, k) = i * n_B + k``."""
        return gamma(i, k, self.n_b)

    def has_edge(self, p: int, q: int) -> bool:
        """Edge membership: ``C_pq = A_{alpha(p),alpha(q)} B_{beta(p),beta(q)}``."""
        i, k = divmod(int(p), self.n_b)
        j, l = divmod(int(q), self.n_b)
        return self.csr_a.has_edge(i, j) and self.csr_b.has_edge(k, l)

    def has_edges(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Vectorized edge membership for aligned endpoint arrays.

        ``C_pq = A_{alpha(p),alpha(q)} B_{beta(p),beta(q)}`` evaluated for
        the whole batch with two binary searches over precomputed sorted
        row-major factor edge keys -- ``O(log |E|)`` per pair, no Python
        loop.  This is the serving hot path of :mod:`repro.service`.
        """
        p = np.asarray(p, dtype=np.int64)
        q = np.asarray(q, dtype=np.int64)
        if self._keys_a is None:
            self._keys_a = self._edge_keys(self.csr_a)
            self._keys_b = self._edge_keys(self.csr_b)
        i, k = np.divmod(p, np.int64(self.n_b))
        j, l = np.divmod(q, np.int64(self.n_b))
        want_a = i * np.int64(self.n_a) + j
        want_b = k * np.int64(self.n_b) + l
        out = np.zeros(p.shape, dtype=bool)
        pos_a = np.searchsorted(self._keys_a, want_a)
        hit_a = pos_a < len(self._keys_a)
        hit_a[hit_a] = self._keys_a[pos_a[hit_a]] == want_a[hit_a]
        if not hit_a.any():
            return out
        pos_b = np.searchsorted(self._keys_b, want_b[hit_a])
        hit_b = pos_b < len(self._keys_b)
        hit_b[hit_b] = self._keys_b[pos_b[hit_b]] == want_b[hit_a][hit_b]
        out[hit_a] = hit_b
        return out

    def neighbors(self, p: int) -> np.ndarray:
        """Sorted neighbor ids of ``p`` in C (computed, not stored).

        The neighborhood is the Kronecker product of the factor
        neighborhoods: ``N_C(p) = { gamma(j, l) : j in N_A(i), l in N_B(k) }``.
        """
        i, k = divmod(int(p), self.n_b)
        na = self.csr_a.neighbors(i)
        nb = self.csr_b.neighbors(k)
        if len(na) == 0 or len(nb) == 0:
            return np.empty(0, dtype=np.int64)
        # outer sum of (na * n_b) and nb; rows already sorted => result sorted
        out = (na[:, None] * np.int64(self.n_b) + nb[None, :]).ravel()
        return out

    def degree(self, p: int | np.ndarray) -> np.ndarray:
        """Non-loop degree of product vertices (vectorized).

        Row ``p`` of C has ``dtot_A(i) * dtot_B(k)`` entries where ``dtot``
        counts loops; the product has a loop at ``p`` iff both factors have
        loops at ``(i, k)``, and the paper's degree excludes it.
        """
        i, k = self.split_vertex(np.asarray(p))
        dtot = self.csr_a.degrees_total()[i] * self.csr_b.degrees_total()[k]
        return dtot - (self._loops_a[i] & self._loops_b[k]).astype(np.int64)

    def degrees(self) -> np.ndarray:
        """Non-loop degree of **every** product vertex (length ``n_C``).

        This is the degree scaling law evaluated in one shot:
        ``d_C = dtot_A (x) dtot_B - loop indicator``.
        """
        dtot = np.kron(self.csr_a.degrees_total(), self.csr_b.degrees_total())
        loops = np.kron(
            self._loops_a.astype(np.int64), self._loops_b.astype(np.int64)
        )
        return dtot - loops

    # ------------------------------------------------------------------ #
    # materialization
    # ------------------------------------------------------------------ #
    def iter_edges(self, chunk_size: int = DEFAULT_CHUNK) -> Iterator[np.ndarray]:
        """Stream all product edges in chunks (see :func:`iter_kron_product`):
        blocks in the product's id dtype, ``int32`` up to ``2**31``
        vertices.  Every query and :meth:`to_edgelist` are ``int64``."""
        return iter_kron_product(self._el_a, self._el_b, chunk_size)

    def to_edgelist(self) -> EdgeList:
        """Materialize the full product (memory ``O(|E_C|)``; use sparingly)."""
        return kron_product(self._el_a, self._el_b)

    @property
    def factor_a(self) -> EdgeList:
        """Deduplicated factor A edge list."""
        return self._el_a

    @property
    def factor_b(self) -> EdgeList:
        """Deduplicated factor B edge list."""
        return self._el_b

    def __repr__(self) -> str:
        return (
            f"KroneckerGraph(n={self.n}, m_directed={self.m_directed}, "
            f"factors=({self.n_a}, {self.n_b}))"
        )
