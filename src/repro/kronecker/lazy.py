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

from repro.errors import VertexRangeError
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.kronecker.indexing import gamma, split
from repro.kronecker.product import DEFAULT_CHUNK, iter_kron_product, kron_product

__all__ = ["KroneckerGraph"]


class _FactorMembership:
    """Batched ``A_ij`` lookups for one factor, from the smaller of two forms.

    A packed adjacency bitmap -- ``ceil(n**2 / 8)`` bytes, one gather and a
    shift per query -- when it is no larger than the factor's sorted
    row-major ``int64`` edge keys (``8 m`` bytes, a binary search per
    query), i.e. at density ``m / n**2 >= 1/64``; the keys otherwise.  The
    choice follows from the factor alone, and membership never holds more
    bytes than the keys would.
    """

    __slots__ = ("n", "bits", "keys")

    def __init__(self, csr: CSRGraph) -> None:
        self.n = csr.n
        src = np.repeat(np.arange(csr.n, dtype=np.int64), np.diff(csr.indptr))
        keys = src * np.int64(csr.n) + csr.indices
        self.bits: np.ndarray | None = None
        self.keys: np.ndarray | None = None
        if (csr.n * csr.n + 7) // 8 <= keys.nbytes:
            dense = np.zeros(csr.n * csr.n, dtype=bool)
            dense[keys] = True
            self.bits = np.packbits(dense, bitorder="little")
        else:
            self.keys = keys

    @property
    def nbytes(self) -> int:
        return (self.bits if self.bits is not None else self.keys).nbytes

    def __call__(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """``A[i, j]`` for aligned in-range index arrays, as bools."""
        want = i * np.int64(self.n) + j
        if self.bits is not None:
            byte = self.bits.take(want >> 3)
            return (byte >> (want & 7).astype(np.uint8)) & 1 == 1
        pos = np.searchsorted(self.keys, want)
        hit = pos < len(self.keys)
        hit[hit] = self.keys[pos[hit]] == want[hit]
        return hit


class KroneckerGraph:
    """The product ``C = A (x) B`` represented by its factors.

    Parameters
    ----------
    factor_a, factor_b:
        Factor edge lists.  They are converted to CSR once; the product is
        never stored.

    Notes
    -----
    Memory is ``O(|E_A| + |E_B|)``.  Batched membership (:meth:`has_edges`)
    looks each factor up in a packed adjacency bitmap when that bitmap
    (``n**2 / 8`` bytes) is no larger than the factor's sorted ``int64``
    edge keys (``8 m`` bytes, density at least 1/64), and by binary search
    in the keys otherwise -- never more bytes than the keys.
    :meth:`has_edge` costs two binary searches in CSR rows; :meth:`neighbors`
    costs the output size; :meth:`iter_edges` streams the full product in
    bounded chunks.  Every query refuses a vertex id outside ``[0, n)``
    with :class:`~repro.errors.VertexRangeError`.
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
        # Batched membership per factor, built on the first batch query.
        self._member_a: _FactorMembership | None = None
        self._member_b: _FactorMembership | None = None

    def _out_of_range(self) -> VertexRangeError:
        """The one refusal of an id outside ``[0, n)``: ``divmod`` would
        alias it onto another vertex (``n`` onto row 1 of A, ``-1`` onto
        ``n - 1``)."""
        return VertexRangeError(f"vertex ids outside 0..{self.n - 1}")

    def _check_ids(self, *ids: np.ndarray) -> None:
        for v in ids:
            if v.size and (v.min() < 0 or v.max() >= self.n):
                raise self._out_of_range()

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
        if not (0 <= p < self.n and 0 <= q < self.n):
            raise self._out_of_range()
        i, k = divmod(int(p), self.n_b)
        j, l = divmod(int(q), self.n_b)
        return self.csr_a.has_edge(i, j) and self.csr_b.has_edge(k, l)

    def has_edges(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Vectorized edge membership for aligned endpoint arrays.

        ``C_pq = A_{alpha(p),alpha(q)} B_{beta(p),beta(q)}`` for the whole
        batch, each factor looked up in its bitmap or its sorted keys (see
        the class notes) -- no Python loop.  This is the serving hot path of
        :mod:`repro.service`.
        """
        p = np.asarray(p, dtype=np.int64)
        q = np.asarray(q, dtype=np.int64)
        self._check_ids(p, q)
        if self._member_a is None:
            self._member_a = _FactorMembership(self.csr_a)
            self._member_b = _FactorMembership(self.csr_b)
        n_b = np.int64(self.n_b)
        i, j = p // n_b, q // n_b  # np.divmod is 3x slower than // and -
        k, l = p - i * n_b, q - j * n_b
        out = self._member_a(i, j)
        if self._member_b.bits is not None:
            out &= self._member_b(k, l)
        elif out.any():  # binary searches: only where A hit
            out[out] = self._member_b(k[out], l[out])
        return out

    def neighbors(self, p: int, limit: int | None = None) -> np.ndarray:
        """Sorted neighbor ids of ``p`` in C (computed, not stored); with
        ``limit``, only the first ``limit`` of them.

        The neighborhood is the Kronecker product of the factor
        neighborhoods: ``N_C(p) = { gamma(j, l) : j in N_A(i), l in N_B(k) }``.
        A limit expands only the rows of ``N_A(i)`` it reaches, so a hub's
        first few neighbours cost a few ids, not its whole row.
        """
        if not 0 <= p < self.n:
            raise self._out_of_range()
        i, k = divmod(int(p), self.n_b)
        na = self.csr_a.neighbors(i)
        nb = self.csr_b.neighbors(k)
        if len(na) == 0 or len(nb) == 0:
            return np.empty(0, dtype=np.int64)
        if limit is not None:
            na = na[: -(-limit // len(nb))]
        # outer sum of (na * n_b) and nb; rows already sorted => result sorted
        out = (na[:, None] * np.int64(self.n_b) + nb[None, :]).ravel()
        return out if limit is None else out[:limit]

    def degree_total(self, p: int | np.ndarray) -> np.ndarray:
        """Row lengths of product vertices, self loops included (vectorized):
        ``dtot_A(i) * dtot_B(k)``, the length of :meth:`neighbors`."""
        p = np.asarray(p, dtype=np.int64)
        self._check_ids(p)
        i, k = self.split_vertex(p)
        ptr_a, ptr_b = self.csr_a.indptr, self.csr_b.indptr
        return (ptr_a.take(i + 1) - ptr_a.take(i)) * (ptr_b.take(k + 1) - ptr_b.take(k))

    def degree(self, p: int | np.ndarray) -> np.ndarray:
        """Non-loop degree of product vertices (vectorized).

        Row ``p`` of C has ``dtot_A(i) * dtot_B(k)`` entries
        (:meth:`degree_total`); the product has a loop at ``p`` iff both
        factors have loops at ``(i, k)``, and the paper's degree excludes it.
        """
        p = np.asarray(p, dtype=np.int64)
        total = self.degree_total(p)
        i, k = self.split_vertex(p)
        return total - (self._loops_a[i] & self._loops_b[k])

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
