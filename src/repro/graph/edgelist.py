"""Edge-list representation of graphs.

The paper's generator consumes factors "given as (unordered) edge lists" and
emits the product as an edge stream, so the edge list is the library's
fundamental exchange format.  :class:`EdgeList` wraps an ``(m, 2)`` ``int64``
array plus a vertex count and provides the normalizations every other layer
relies on: symmetrization, deduplication, self-loop surgery, and canonical
ordering.

Conventions
-----------
* Vertex ids are 0-based (the paper's algebra is 1-based; the translation is
  confined to :mod:`repro.kronecker.indexing`).
* An *undirected* graph is stored with **both** directions of every non-loop
  edge present; ``EdgeList.is_symmetric()`` checks this invariant.
* ``num_undirected_edges`` is the paper's ``m``: non-loop directed edges / 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphFormatError
from repro.util.validation import check_edge_array, check_square_ids

__all__ = ["EdgeList", "canonical_order"]


# Largest n for which the scalar row key src * n + dst fits in int64.
_MAX_KEYABLE_N = 3_037_000_499


def _row_keys(edges: np.ndarray, n: int) -> np.ndarray | None:
    """Scalar sort keys ``src * n + dst``, or None when they would overflow.

    Sorting one int64 key per row is several times faster than
    ``np.unique(axis=0)`` / lexsort on two columns, which matters when
    normalizing multi-million-row product edge lists.
    """
    if 0 < n <= _MAX_KEYABLE_N:
        return edges[:, 0] * np.int64(n) + edges[:, 1]
    return None


def canonical_order(edges: np.ndarray, n: int = 0) -> np.ndarray:
    """Return ``edges`` sorted lexicographically by (src, dst).

    ``n`` is any bound above every vertex id; when given (and keyable) the
    rows sort by one scalar key instead of a two-column ``lexsort``.
    """
    if len(edges) == 0:
        return edges
    keys = _row_keys(edges, n)
    if keys is not None:
        return edges[np.argsort(keys, kind="stable")]
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return edges[order]


def _sorted_unique(edges: np.ndarray, n: int) -> np.ndarray:
    """Canonically ordered edges with duplicate rows removed."""
    if len(edges) == 0:
        return edges
    keys = _row_keys(edges, n)
    if keys is None:
        return np.unique(edges, axis=0)
    keys = np.sort(keys)
    keep = np.empty(len(keys), dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    uniq = keys[keep]
    out = np.empty((len(uniq), 2), dtype=np.int64)
    np.floor_divide(uniq, n, out=out[:, 0])
    np.remainder(uniq, n, out=out[:, 1])
    return out


@dataclass(frozen=True)
class EdgeList:
    """An immutable list of directed edges over vertices ``0..n-1``.

    Parameters
    ----------
    edges:
        ``(m, 2)`` integer array of ``(src, dst)`` pairs.  Duplicates are
        permitted at construction; use :meth:`deduplicate` to remove them.
    n:
        Number of vertices.  If ``None``, inferred as ``max id + 1``
        (0 for an empty list).

    Notes
    -----
    Instances are frozen; every transformation returns a new ``EdgeList``.
    The underlying array is not defensively copied -- callers must not
    mutate it after handing it over.
    """

    edges: np.ndarray
    n: int

    def __init__(self, edges: np.ndarray, n: int | None = None) -> None:
        arr = check_edge_array(edges)
        if n is None:
            n = int(arr.max()) + 1 if arr.size else 0
        else:
            n = int(n)
            if n < 0:
                raise GraphFormatError(f"n must be >= 0, got {n}")
            check_square_ids(arr, n)
        object.__setattr__(self, "edges", arr)
        object.__setattr__(self, "n", n)

    @classmethod
    def from_checked(cls, edges: np.ndarray, n: int) -> "EdgeList":
        """Wrap a C-contiguous ``(m, 2)`` ``int64`` array whose ids the caller
        has already checked lie in ``[0, n)`` (:func:`~repro.util.validation.check_id_block`),
        without scanning it again."""
        out = object.__new__(cls)
        object.__setattr__(out, "edges", edges)
        object.__setattr__(out, "n", int(n))
        return out

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def m_directed(self) -> int:
        """Number of stored directed edges (rows), loops included."""
        return len(self.edges)

    @property
    def src(self) -> np.ndarray:
        """Source column (view)."""
        return self.edges[:, 0]

    @property
    def dst(self) -> np.ndarray:
        """Destination column (view)."""
        return self.edges[:, 1]

    @property
    def num_self_loops(self) -> int:
        """Number of stored self-loop rows."""
        return int(np.count_nonzero(self.src == self.dst))

    @property
    def num_undirected_edges(self) -> int:
        """The paper's ``m``: non-loop directed edges divided by two.

        Only meaningful on symmetric, deduplicated lists; the value is
        computed from row counts without checking symmetry (call
        :meth:`is_symmetric` separately when the invariant is in doubt).
        """
        return (self.m_directed - self.num_self_loops) // 2

    def __len__(self) -> int:
        return self.m_directed

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeList):
            return NotImplemented
        if self.n != other.n:
            return False
        a = canonical_order(self.edges, self.n)
        b = canonical_order(other.edges, other.n)
        return a.shape == b.shape and bool(np.array_equal(a, b))

    def __hash__(self) -> int:  # frozen dataclass with arrays: id-free hash
        return hash((self.n, self.m_directed))

    def __repr__(self) -> str:
        return f"EdgeList(n={self.n}, m_directed={self.m_directed})"

    # ------------------------------------------------------------------ #
    # structural predicates
    # ------------------------------------------------------------------ #
    def is_symmetric(self) -> bool:
        """``True`` iff for every stored ``(u, v)`` the reverse is stored too."""
        if len(self.edges) == 0:
            return True
        fwd = _sorted_unique(self.edges, self.n)
        rev = _sorted_unique(np.ascontiguousarray(self.edges[:, ::-1]), self.n)
        return fwd.shape == rev.shape and bool(np.array_equal(fwd, rev))

    def has_full_self_loops(self) -> bool:
        """``True`` iff every vertex ``0..n-1`` has a self loop (``D = I``)."""
        loops = self.src[self.src == self.dst]
        return len(np.unique(loops)) == self.n

    def has_no_self_loops(self) -> bool:
        """``True`` iff no self loop is stored (``D = O``)."""
        return self.num_self_loops == 0

    def has_duplicates(self) -> bool:
        """``True`` iff any directed edge row appears more than once."""
        return len(np.unique(self.edges, axis=0)) != len(self.edges)

    # ------------------------------------------------------------------ #
    # transformations (all return new EdgeLists)
    # ------------------------------------------------------------------ #
    def deduplicate(self) -> "EdgeList":
        """Remove duplicate directed rows (result is canonically ordered)."""
        return EdgeList(_sorted_unique(self.edges, self.n), self.n)

    def canonicalized(self) -> "EdgeList":
        """Sort rows lexicographically by ``(src, dst)``."""
        return EdgeList(canonical_order(self.edges, self.n), self.n)

    def symmetrized(self) -> "EdgeList":
        """Union with all reversed edges, deduplicated.

        This is the paper's "we formed the undirected version" preprocessing
        step.  Self loops are kept as single rows.
        """
        both = np.vstack([self.edges, self.edges[:, ::-1]])
        return EdgeList(_sorted_unique(both, self.n), self.n)

    def without_self_loops(self) -> "EdgeList":
        """Drop all self-loop rows."""
        keep = self.src != self.dst
        return EdgeList(self.edges[keep], self.n)

    def with_full_self_loops(self) -> "EdgeList":
        """Ensure a self loop on **every** vertex (the paper's ``A + I_A``)."""
        loops = np.arange(self.n, dtype=np.int64)
        loop_rows = np.column_stack([loops, loops])
        base = self.without_self_loops().edges
        return EdgeList(np.vstack([base, loop_rows]), self.n)

    def relabeled(self, mapping: np.ndarray) -> "EdgeList":
        """Apply a vertex relabeling ``old_id -> mapping[old_id]``.

        ``mapping`` must be a length-``n`` array of new ids; the new vertex
        count is ``mapping.max() + 1``.
        """
        mapping = np.asarray(mapping, dtype=np.int64)
        if mapping.shape != (self.n,):
            raise GraphFormatError(
                f"mapping must have shape ({self.n},), got {mapping.shape}"
            )
        if mapping.size and mapping.min() < 0:
            raise GraphFormatError("mapping contains negative ids")
        new_n = int(mapping.max()) + 1 if mapping.size else 0
        return EdgeList(mapping[self.edges], new_n)

    def induced_subgraph(self, vertices: np.ndarray) -> "EdgeList":
        """Induced subgraph on ``vertices``, relabeled to ``0..len(v)-1``.

        ``vertices`` may be in any order; edge endpoints are remapped to the
        position of their vertex in the (sorted, deduplicated) selection.
        """
        verts = np.unique(np.asarray(vertices, dtype=np.int64))
        if verts.size and (verts[0] < 0 or verts[-1] >= self.n):
            raise GraphFormatError("vertex selection out of range")
        lookup = np.full(self.n, -1, dtype=np.int64)
        lookup[verts] = np.arange(len(verts), dtype=np.int64)
        keep = (lookup[self.src] >= 0) & (lookup[self.dst] >= 0)
        sub = lookup[self.edges[keep]]
        return EdgeList(sub, len(verts))

    def concatenated(self, other: "EdgeList") -> "EdgeList":
        """Stack rows of two edge lists over the same vertex set."""
        if other.n != self.n:
            raise GraphFormatError(
                f"vertex counts differ: {self.n} vs {other.n}"
            )
        return EdgeList(np.vstack([self.edges, other.edges]), self.n)

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    def to_scipy_sparse(self, dtype=np.float64):
        """Build a ``scipy.sparse.csr_matrix`` adjacency (0/1 entries).

        Duplicate rows collapse to a single 1 entry, matching the boolean
        adjacency semantics of the paper.
        """
        from scipy import sparse

        if self.n == 0:
            return sparse.csr_matrix((0, 0), dtype=dtype)
        data = np.ones(len(self.edges), dtype=dtype)
        mat = sparse.coo_matrix(
            (data, (self.src, self.dst)), shape=(self.n, self.n)
        ).tocsr()
        mat.data[:] = 1  # collapse duplicates to boolean
        mat.sum_duplicates()
        mat.data[:] = 1
        return mat

    def to_networkx(self):
        """Build a ``networkx.Graph`` (undirected; used for cross-validation)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(map(tuple, self.edges))
        return g

    @classmethod
    def from_scipy_sparse(cls, mat) -> "EdgeList":
        """Edge list of the nonzero pattern of a square sparse matrix."""
        coo = mat.tocoo()
        if coo.shape[0] != coo.shape[1]:
            raise GraphFormatError(f"matrix must be square, got {coo.shape}")
        keep = coo.data != 0
        edges = np.column_stack(
            [coo.row[keep].astype(np.int64), coo.col[keep].astype(np.int64)]
        )
        return cls(edges, coo.shape[0])

    @classmethod
    def from_pairs(cls, pairs, n: int | None = None) -> "EdgeList":
        """Build from an iterable of ``(u, v)`` pairs (convenience for tests)."""
        arr = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
        return cls(arr, n)
