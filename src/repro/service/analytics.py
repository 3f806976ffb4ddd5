"""The served analytics: property names -> ground-truth formulas.

Each property is a pure function of the two factor edge lists plus
JSON-encodable parameters, evaluated entirely from factor data (the
product is never materialized).  Each property computes its own
factor-level intermediates (triangle stats, degree vectors, eccentricity
vectors, BFS hop rows); none feeds another property, and only the two
``triangles`` conventions read the same one.  So nothing below is
memoized: the one cache is the server's
:class:`~repro.service.AnalyticsCache` of finished answers, and each
answer is computed once per server.

Properties (the ``{property}`` path segment of
``POST /v1/tenants/{t}/graphs/{g}/analytics/{property}``):

``summary``
    vertex/edge/self-loop counts of the product (scaling laws).
``triangles``
    global triangle count; ``params.convention`` selects the paper's
    ``no_loops`` (default) or ``full_loops`` formula.
``degree_histogram``
    exact product degree histogram composed from factor histograms.
``eccentricity_histogram``
    exact product eccentricity histogram (Cor. 4; factors must be
    connected and the full-self-loops convention applies).
``closeness``
    closeness centrality of one product vertex ``params.p`` via the
    paper's histogram method (Thm. 4).
``community``
    exact ``m_in`` / ``m_out`` / densities of the Kronecker community
    ``S_A (x) S_B`` given ``params.set_a`` / ``params.set_b`` (Thm. 6).
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.errors import RequestError
from repro.graph.csr import CSRGraph
from repro.kronecker.lazy import KroneckerGraph
from repro.service.protocol import int_ids

__all__ = ["PROPERTIES", "compute_property", "property_names"]


# --------------------------------------------------------------------- #
# served properties
# --------------------------------------------------------------------- #
def _int_param(params: dict, name: str, lo: int, hi: int) -> int:
    value = params.get(name)
    if not isinstance(value, int) or isinstance(value, bool):
        raise RequestError(f"params.{name} must be an integer", params=params)
    if not lo <= value < hi:
        raise RequestError(
            f"params.{name}={value} outside [{lo}, {hi})", params=params
        )
    return value


def _vertex_list(params: dict, name: str, n: int) -> np.ndarray:
    value = params.get(name)
    if not isinstance(value, list) or not value:
        raise RequestError(
            f"params.{name} must be a non-empty vertex list", params=params
        )
    arr = int_ids(value, f"params.{name}", params=params)
    if arr.min() < 0 or arr.max() >= n:
        raise RequestError(
            f"params.{name} has vertices outside 0..{n - 1}", params=params
        )
    return arr


def _prop_summary(g: KroneckerGraph, params: dict) -> dict[str, Any]:
    return {
        "n": g.n,
        "m_directed": g.m_directed,
        "num_self_loops": g.num_self_loops,
        "num_undirected_edges": g.num_undirected_edges,
    }


def _prop_triangles(g: KroneckerGraph, params: dict) -> dict[str, Any]:
    from repro.groundtruth.triangles import (
        factor_triangle_stats,
        global_triangles_full_loops,
        global_triangles_no_loops,
    )

    convention = params.get("convention", "no_loops")
    sa = factor_triangle_stats(g.factor_a.without_self_loops())
    sb = factor_triangle_stats(g.factor_b.without_self_loops())
    if convention == "no_loops":
        tau = global_triangles_no_loops(sa.global_tri, sb.global_tri)
    elif convention == "full_loops":
        tau = global_triangles_full_loops(sa, sb)
    else:
        raise RequestError(
            f"params.convention must be 'no_loops' or 'full_loops', "
            f"got {convention!r}",
            params=params,
        )
    return {"convention": convention, "global_triangles": int(tau)}


def _prop_degree_histogram(g: KroneckerGraph, params: dict) -> dict[str, Any]:
    from repro.analytics.degree import degrees
    from repro.groundtruth.degrees import degree_histogram_product

    hist = degree_histogram_product(degrees(g.factor_a), degrees(g.factor_b))
    return {"histogram": {str(k): v for k, v in sorted(hist.items())}}


def _require_full_loops(g: KroneckerGraph, prop: str) -> None:
    """Cor. 4 / Thm. 4 hold for ``(A+I) (x) (B+I)``; verify the hypothesis."""
    from repro.errors import AssumptionError

    if not (
        g.factor_a.has_full_self_loops() and g.factor_b.has_full_self_loops()
    ):
        raise AssumptionError(
            f"property {prop!r} requires full self loops in both factors "
            f"(register with self_loops=true)"
        )


def _prop_eccentricity_histogram(
    g: KroneckerGraph, params: dict
) -> dict[str, Any]:
    from repro.analytics.eccentricity import exact_eccentricities
    from repro.groundtruth.eccentricity import eccentricity_histogram_product

    _require_full_loops(g, "eccentricity_histogram")
    ecc_a = exact_eccentricities(g.factor_a).eccentricities
    ecc_b = exact_eccentricities(g.factor_b).eccentricities
    hist = eccentricity_histogram_product(ecc_a, ecc_b)
    return {
        "histogram": {str(k): v for k, v in sorted(hist.items())},
        "diameter": int(max(ecc_a.max(), ecc_b.max())),
        "radius": int(max(ecc_a.min(), ecc_b.min())),
    }


def _prop_closeness(g: KroneckerGraph, params: dict) -> dict[str, Any]:
    from repro.analytics.bfs import bfs_hops
    from repro.groundtruth.closeness import closeness_product_histogram

    _require_full_loops(g, "closeness")
    p = _int_param(params, "p", 0, g.n)
    i, k = divmod(p, g.n_b)
    row_a = bfs_hops(
        CSRGraph.from_edgelist(g.factor_a), i, selfloop_convention=True
    )
    row_b = bfs_hops(
        CSRGraph.from_edgelist(g.factor_b), k, selfloop_convention=True
    )
    return {
        "p": p,
        "closeness": closeness_product_histogram(row_a, row_b),
    }


def _prop_community(g: KroneckerGraph, params: dict) -> dict[str, Any]:
    from repro.analytics.communities import community_stats
    from repro.groundtruth.community import (
        community_stats_product,
        theta_set,
    )

    set_a = _vertex_list(params, "set_a", g.n_a)
    set_b = _vertex_list(params, "set_b", g.n_b)
    stats_a = community_stats(g.factor_a.without_self_loops(), set_a)
    stats_b = community_stats(g.factor_b.without_self_loops(), set_b)
    stats_c = community_stats_product(stats_a, stats_b)
    rho_in = stats_c.rho_in
    rho_out = stats_c.rho_out
    return {
        "size": stats_c.size,
        "m_in": stats_c.m_in,
        "m_out": stats_c.m_out,
        "rho_in": None if np.isnan(rho_in) else rho_in,
        "rho_out": None if np.isnan(rho_out) else rho_out,
        "theta": theta_set(stats_a.size, stats_b.size),
    }


PROPERTIES: dict[str, Callable[[KroneckerGraph, dict], dict[str, Any]]] = {
    "summary": _prop_summary,
    "triangles": _prop_triangles,
    "degree_histogram": _prop_degree_histogram,
    "eccentricity_histogram": _prop_eccentricity_histogram,
    "closeness": _prop_closeness,
    "community": _prop_community,
}


def property_names() -> list[str]:
    return sorted(PROPERTIES)


def compute_property(
    name: str, graph: KroneckerGraph, params: dict
) -> dict[str, Any]:
    """Evaluate property ``name`` on ``graph``; raise on unknown names."""
    fn = PROPERTIES.get(name)
    if fn is None:
        raise RequestError(
            f"unknown property {name!r}; known: {', '.join(property_names())}",
            property=name,
        )
    return fn(graph, params)
