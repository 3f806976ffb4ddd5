"""Probabilistic edge rejection (Section IV-C, Def. 8).

Pure Kronecker products have artifacts (no large prime degrees, distribution
holes, excessive ties) and their structure can be exploited -- accidentally
or not -- by benchmarked algorithms.  The paper's mitigation keeps ground
truth *computable* while breaking the exact product structure: fix a hash
``hash(p, q) -> [0, 1]`` and keep edge ``(p, q)`` in the subgraph
``G_{C, nu}`` iff ``hash(p, q) <= nu``.

Because the hash is deterministic, one pass generates the whole family
``{G_{C, nu_1}, ..., G_{C, nu_s}}`` jointly, and a triangle ``(p1, p2, p3)``
of ``G_C`` survives in ``G_{C, nu}`` iff the max of its three edge hashes is
``<= nu``; expectations are ``nu**3 t_p`` per vertex and ``nu**2 Delta_pq``
per edge.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.graph.edgelist import EdgeList
from repro.kronecker.lazy import KroneckerGraph
from repro.util.hashing import edge_uniform
from repro.util.validation import check_probability

__all__ = ["RejectionFamily", "expected_vertex_triangles", "expected_edge_triangles"]


def expected_vertex_triangles(t_full: np.ndarray, nu: float) -> np.ndarray:
    """Expected per-vertex triangle counts in ``G_{C,nu}``: ``nu**3 * t_p``."""
    nu = check_probability(nu, "nu")
    return nu**3 * np.asarray(t_full, dtype=np.float64)


def expected_edge_triangles(delta_full: np.ndarray, nu: float) -> np.ndarray:
    """Expected per-edge triangle counts in ``G_{C,nu}``: ``nu**2 * Delta_pq``."""
    nu = check_probability(nu, "nu")
    return nu**2 * np.asarray(delta_full, dtype=np.float64)


class RejectionFamily:
    """The parameterized subgraph family ``{G_{C, nu}}`` of Def. 8.

    Parameters
    ----------
    graph:
        The full graph, as either a materialized :class:`EdgeList` or a lazy
        :class:`KroneckerGraph` (streamed without materialization).
    seed:
        Hash-stream seed.  Different seeds give independent families, which
        is how the statistical tests average over hash randomness.
    directed:
        If ``False`` (default), ``(p, q)`` and ``(q, p)`` share one hash so
        the subgraph of a symmetric graph stays symmetric.
    """

    def __init__(
        self,
        graph: EdgeList | KroneckerGraph,
        seed: int = 0,
        *,
        directed: bool = False,
    ) -> None:
        self._graph = graph
        self.seed = int(seed)
        self.directed = bool(directed)

    # ------------------------------------------------------------------ #
    # per-edge machinery
    # ------------------------------------------------------------------ #
    def edge_hashes(self, edges: np.ndarray) -> np.ndarray:
        """Deterministic uniforms for the given ``(m, 2)`` edge block."""
        return edge_uniform(
            edges[:, 0], edges[:, 1], self.seed, directed=self.directed
        )

    def survives(self, edges: np.ndarray, nu: float) -> np.ndarray:
        """Boolean survival mask of an edge block at threshold ``nu``."""
        nu = check_probability(nu, "nu")
        return self.edge_hashes(edges) <= nu

    # ------------------------------------------------------------------ #
    # subgraph generation
    # ------------------------------------------------------------------ #
    def _iter_blocks(self) -> Iterator[np.ndarray]:
        if isinstance(self._graph, KroneckerGraph):
            yield from self._graph.iter_edges()
        else:
            yield self._graph.edges

    @property
    def n(self) -> int:
        """Vertex count of the underlying full graph."""
        return self._graph.n

    def subgraph(self, nu: float) -> EdgeList:
        """Materialize ``G_{C, nu}`` as an edge list."""
        nu = check_probability(nu, "nu")
        kept = [blk[self.survives(blk, nu)] for blk in self._iter_blocks()]
        edges = (
            np.vstack(kept) if kept else np.empty((0, 2), dtype=np.int64)
        )
        return EdgeList(edges, self.n)

    def subgraph_family(self, nus: list[float]) -> dict[float, EdgeList]:
        """Jointly materialize ``G_{C, nu}`` for several thresholds.

        Each edge is hashed exactly once; an edge surviving the largest
        threshold is tested against all of them, matching the paper's
        "storing the hash values of every edge" joint-generation scheme.
        """
        nus = sorted({check_probability(v, "nu") for v in nus}, reverse=True)
        if not nus:
            return {}
        top = nus[0]
        kept_edges: list[np.ndarray] = []
        kept_hashes: list[np.ndarray] = []
        for blk in self._iter_blocks():
            h = self.edge_hashes(blk)
            mask = h <= top
            kept_edges.append(blk[mask])
            kept_hashes.append(h[mask])
        edges = (
            np.vstack(kept_edges) if kept_edges else np.empty((0, 2), dtype=np.int64)
        )
        hashes = (
            np.concatenate(kept_hashes)
            if kept_hashes
            else np.empty(0, dtype=np.float64)
        )
        return {
            nu: EdgeList(edges[hashes <= nu], self.n) for nu in nus
        }

    # ------------------------------------------------------------------ #
    # triangle survival (the joint-enumeration rule of Def. 8)
    # ------------------------------------------------------------------ #
    def triangle_survival_threshold(
        self, p1: np.ndarray, p2: np.ndarray, p3: np.ndarray
    ) -> np.ndarray:
        """Largest hash among a triangle's three edges (vectorized).

        Triangle ``(p1, p2, p3)`` of ``G_C`` exists in ``G_{C, nu}`` iff this
        value is ``<= nu``; computing it once per triangle lets one
        enumeration of ``G_C``'s triangles count triangles of every family
        member simultaneously.
        """
        h12, h13, h23 = (
            edge_uniform(u, v, self.seed, directed=self.directed)
            for u, v in ((p1, p2), (p1, p3), (p2, p3))
        )
        return np.maximum(np.maximum(h12, h13), h23)
