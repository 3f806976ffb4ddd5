"""The formula-vs-direct harness: one registry of Kronecker laws.

Each row of :data:`ROWS` computes one property both ways -- the Kronecker
law from factor data and the trusted direct algorithm of
:mod:`repro.analytics` on the materialized product -- and reports a
:class:`CheckResult`.  This is the paper's validation workflow as a
library: "compare the results to a known trusted implementation", where the
trusted side *is* the ground-truth formula.

The registry holds three sets of rows, in this order:

* :data:`PAPER_TABLE`, the 12 rows of the Section-I scaling-law table.
  Each runs on the product its theorem assumes; ``*`` marks
  ``(A + I) (x) (B + I)``, the others run on the loop-free ``A (x) B``:

  ====================  ==========================================  ========
  Row                   Law                                         Relation
  ====================  ==========================================  ========
  vertices              ``n_C = n_A n_B``                           exact
  edges                 ``m_C = 2 m_A m_B``                         exact
  degrees               ``d_C = d_A (x) d_B``                       exact
  vertex_triangles      ``t_C = 2 t_A (x) t_B``                     exact
  edge_triangles        ``Delta_C = Delta_A (x) Delta_B``           exact
  global_triangles      ``tau_C = 6 tau_A tau_B``                   exact
  clustering            ``eta_C(p) >= (1/3) eta_A(i) eta_B(k)``     bound
  eccentricity*         ``eps_C(p) = max(eps_A(i), eps_B(k))``      exact
  diameter*             ``diam(C) = max(diam A, diam B)``           exact
  communities*          ``|Pi_C| = |Pi_A| |Pi_B|``                  exact
  internal_density*     ``rho_in(C) >= (1/3) rho_in(A) rho_in(B)``  bound
  external_density*     ``rho_out(C) <= c(omega) rho_out rho_out``  bound
  ====================  ==========================================  ========

* the full-self-loop counting rows on ``(A + I) (x) (B + I)``:
  ``sizes_full_loops``, ``degrees_full_loops``, Cor. 1's
  ``vertex_triangles_full_loops``, corrected Cor. 2's
  ``edge_triangles_full_loops`` at every product edge,
  ``global_triangles_full_loops`` and Thm. 4's ``closeness`` (histogram
  method, every vertex);
* three rows beyond the paper, on ``A (x) B``: the Weichsel
  ``components`` count, the ``top_eigenvalue``
  (``lambda_1(C) = lambda_1(A) lambda_1(B)`` by Perron-Frobenius) and the
  ``closed_walks`` census ``trace(C^h) = trace(A^h) trace(B^h)`` for
  ``h <= 4``.

:func:`validate_product` builds each product at most once, and only if a
selected row reads it.  :func:`validate_algorithm` inverts the roles: it
scores a *user-supplied* analytic against Kronecker ground truth, the
paper's motivating use case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from repro.analytics import (
    closeness_centralities,
    community_stats,
    degrees,
    diameter,
    eccentricities,
    edge_triangles,
    edge_triangles_matrix,
    global_triangles,
    hop_matrix,
    num_components,
    vertex_clustering,
    vertex_triangles,
)
from repro.analytics.communities import labels_from_partition
from repro.errors import AssumptionError, ExperimentError
from repro.graph.edgelist import EdgeList
from repro.groundtruth import community as gt_comm
from repro.groundtruth.closeness import closeness_product_histogram
from repro.groundtruth.clustering import THETA_LOWER_BOUND
from repro.groundtruth.connectivity import product_num_components
from repro.groundtruth.degrees import (
    degrees_full_loops,
    degrees_no_loops,
    edge_count_full_loops,
    edge_count_no_loops,
    vertex_count,
)
from repro.groundtruth.distance import diameter_product
from repro.groundtruth.eccentricity import eccentricity_product_all
from repro.groundtruth.spectrum import factor_eigenvalues
from repro.groundtruth.triangles import (
    edge_triangles_full_loops,
    edge_triangles_no_loops,
    factor_triangle_stats,
    global_triangles_full_loops,
    global_triangles_no_loops,
    vertex_triangles_full_loops,
    vertex_triangles_no_loops,
)
from repro.groundtruth.walks import closed_walk_totals, closed_walk_totals_product
from repro.kronecker.operators import (
    kron_with_full_loops,
    require_no_self_loops,
    require_symmetric,
)
from repro.kronecker.product import kron_product

__all__ = [
    "CheckResult",
    "ValidationReport",
    "ROWS",
    "PAPER_TABLE",
    "validate_product",
    "validate_algorithm",
]

#: The two products a row can read.
PLAIN = "A (x) B"
FULL_LOOPS = "(A+I) (x) (B+I)"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one formula-vs-direct comparison."""

    name: str
    passed: bool
    detail: str
    relation: str = "exact"  # or "bound": the law is an inequality

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        bound = " (bound)" if self.relation == "bound" else ""
        return f"[{mark}] {self.name}{bound}: {self.detail}"


@dataclass
class ValidationReport:
    """Collected check results with a pass/fail summary."""

    results: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """``True`` iff every check passed."""
        return all(r.passed for r in self.results)

    def failures(self) -> list[CheckResult]:
        """The failed checks."""
        return [r for r in self.results if not r.passed]

    def to_text(self) -> str:
        """One line per check plus a summary footer."""
        lines = [str(r) for r in self.results]
        lines.append(
            f"-- {sum(r.passed for r in self.results)}/{len(self.results)} checks passed"
        )
        return "\n".join(lines)


class _Factors(NamedTuple):
    a: EdgeList
    b: EdgeList
    parts_a: list[np.ndarray]
    parts_b: list[np.ndarray]


class _Row(NamedTuple):
    product: str
    relation: str
    check: Callable[[_Factors, EdgeList], tuple[bool, str]]


#: name -> row, in registry order (see the module docstring).
ROWS: dict[str, _Row] = {}


def _row(name: str, product: str, relation: str = "exact"):
    def register(check):
        ROWS[name] = _Row(product, relation, check)
        return check

    return register


# --------------------------------------------------------------------- #
# comparisons
# --------------------------------------------------------------------- #
def _scalar(law, direct) -> tuple[bool, str]:
    return law == direct, f"law {law}, direct {direct}"


def _exact(law, direct) -> tuple[bool, str]:
    law, direct = np.asarray(law), np.asarray(direct)
    if law.shape != direct.shape:
        return False, f"shape mismatch: {law.shape} vs {direct.shape}"
    bad = int(np.count_nonzero(law != direct))
    if bad:
        return False, f"{bad} of {law.size} values differ"
    return True, f"exact match ({law.size} values)"


def _close(law, direct, rtol: float, atol: float) -> tuple[bool, str]:
    law, direct = np.asarray(law, dtype=float), np.asarray(direct, dtype=float)
    if law.shape != direct.shape:
        return False, f"shape mismatch: {law.shape} vs {direct.shape}"
    ok = bool(np.allclose(direct, law, rtol=rtol, atol=atol))
    err = float(np.max(np.abs(direct - law))) if law.size else 0.0
    return ok, f"max |err| = {err:.3e} (rtol={rtol}, atol={atol})"


# --------------------------------------------------------------------- #
# the Section-I table
# --------------------------------------------------------------------- #
@_row("vertices", PLAIN)
def _vertices(f, c):
    return _scalar(vertex_count(f.a.n, f.b.n), c.n)


@_row("edges", PLAIN)
def _edges(f, c):
    law = edge_count_no_loops(f.a.num_undirected_edges, f.b.num_undirected_edges)
    return _scalar(law, c.num_undirected_edges)


@_row("degrees", PLAIN)
def _degrees(f, c):
    return _exact(degrees_no_loops(degrees(f.a), degrees(f.b)), degrees(c))


@_row("vertex_triangles", PLAIN)
def _vertex_triangles(f, c):
    law = vertex_triangles_no_loops(vertex_triangles(f.a), vertex_triangles(f.b))
    return _exact(law, vertex_triangles(c))


@_row("edge_triangles", PLAIN)
def _edge_triangles(f, c):
    law = edge_triangles_no_loops(
        edge_triangles_matrix(f.a), edge_triangles_matrix(f.b)
    )
    bad = (law - edge_triangles_matrix(c)).count_nonzero()
    return bad == 0, f"{bad} of {law.nnz} matrix entries differ"


@_row("global_triangles", PLAIN)
def _global_triangles(f, c):
    law = global_triangles_no_loops(global_triangles(f.a), global_triangles(f.b))
    return _scalar(law, global_triangles(c))


@_row("clustering", PLAIN, "bound")
def _clustering(f, c):
    lower = THETA_LOWER_BOUND * np.kron(vertex_clustering(f.a), vertex_clustering(f.b))
    eta_c = vertex_clustering(c)
    defined = ~(np.isnan(eta_c) | np.isnan(lower))
    ok = eta_c[defined] >= lower[defined] - 1e-12
    return bool(ok.all()), f"eta_C >= bound at {int(ok.sum())} of {ok.size} vertices"


@_row("eccentricity", FULL_LOOPS)
def _eccentricity(f, c):
    law = eccentricity_product_all(
        eccentricities(f.a.with_full_self_loops()),
        eccentricities(f.b.with_full_self_loops()),
    )
    return _exact(law, eccentricities(c))


@_row("diameter", FULL_LOOPS)
def _diameter(f, c):
    return _scalar(diameter_product(diameter(f.a), diameter(f.b)), diameter(c))


@_row("communities", FULL_LOOPS)
def _communities(f, c):
    law = gt_comm.num_communities_product(len(f.parts_a), len(f.parts_b))
    parts_c = gt_comm.kron_partition(f.parts_a, f.parts_b, f.b.n)
    labels = labels_from_partition(parts_c, c.n)
    return _scalar(law, len(np.unique(labels)))


def _community_stats(f, c):
    """``(S_A, S_B, S_C)`` stats for every product community."""
    for sa_ids in f.parts_a:
        sa = community_stats(f.a, sa_ids)
        for sb_ids in f.parts_b:
            sb = community_stats(f.b, sb_ids)
            sc_ids = gt_comm.kron_vertex_set(sa_ids, sb_ids, f.b.n)
            yield sa, sb, community_stats(c, sc_ids)


@_row("internal_density", FULL_LOOPS, "bound")
def _internal_density(f, c):
    checked = [
        sc.rho_in >= gt_comm.internal_density_lower_bound(sa, sb) - 1e-12
        for sa, sb, sc in _community_stats(f, c)
        if sa.size > 1 and sb.size > 1 and sa.rho_in > 0 and sb.rho_in > 0
    ]
    return all(checked), f"rho_in >= bound at {len(checked)} communities"


@_row("external_density", FULL_LOOPS, "bound")
def _external_density(f, c):
    checked = []
    for sa, sb, sc in _community_stats(f, c):
        try:
            bound = gt_comm.external_density_upper_bound(sa, sb)
        except AssumptionError:
            continue
        checked.append(sc.rho_out <= bound + 1e-12)
    return all(checked), f"rho_out <= bound at {len(checked)} communities"


#: The Section-I table's rows, in table order (experiment E1).
PAPER_TABLE = tuple(ROWS)


# --------------------------------------------------------------------- #
# full-self-loop counting rows and Thm. 4
# --------------------------------------------------------------------- #
@_row("sizes_full_loops", FULL_LOOPS)
def _sizes_full_loops(f, c):
    law = (
        vertex_count(f.a.n, f.b.n),
        edge_count_full_loops(
            f.a.num_undirected_edges, f.a.n, f.b.num_undirected_edges, f.b.n
        ),
    )
    return _scalar(law, (c.n, c.num_undirected_edges))


@_row("degrees_full_loops", FULL_LOOPS)
def _degrees_full_loops(f, c):
    return _exact(degrees_full_loops(degrees(f.a), degrees(f.b)), degrees(c))


@_row("vertex_triangles_full_loops", FULL_LOOPS)
def _vertex_triangles_full_loops(f, c):
    law = vertex_triangles_full_loops(
        factor_triangle_stats(f.a), factor_triangle_stats(f.b)
    )
    return _exact(law, vertex_triangles(c))


@_row("edge_triangles_full_loops", FULL_LOOPS)
def _edge_triangles_full_loops(f, c):
    edges = c.without_self_loops().edges
    law = edge_triangles_full_loops(
        factor_triangle_stats(f.a), factor_triangle_stats(f.b), edges
    )
    return _exact(law, edge_triangles(c, edges))


@_row("global_triangles_full_loops", FULL_LOOPS)
def _global_triangles_full_loops(f, c):
    law = global_triangles_full_loops(
        factor_triangle_stats(f.a), factor_triangle_stats(f.b)
    )
    return _scalar(law, global_triangles(c))


@_row("closeness", FULL_LOOPS)
def _closeness(f, c):
    h_a = hop_matrix(f.a.with_full_self_loops())
    h_b = hop_matrix(f.b.with_full_self_loops())
    law = [
        closeness_product_histogram(h_a[p // f.b.n], h_b[p % f.b.n])
        for p in range(f.a.n * f.b.n)
    ]
    return _close(law, closeness_centralities(c), rtol=1e-12, atol=1e-9)


# --------------------------------------------------------------------- #
# beyond the paper's table
# --------------------------------------------------------------------- #
@_row("components", PLAIN)
def _components(f, c):
    return _scalar(product_num_components(f.a, f.b), num_components(c))


@_row("top_eigenvalue", PLAIN)
def _top_eigenvalue(f, c):
    law = factor_eigenvalues(f.a, k=1)[0] * factor_eigenvalues(f.b, k=1)[0]
    return _close(law, factor_eigenvalues(c, k=1)[0], rtol=1e-6, atol=1e-6)


@_row("closed_walks", PLAIN)
def _closed_walks(f, c):
    law = closed_walk_totals_product(
        closed_walk_totals(f.a, 4), closed_walk_totals(f.b, 4)
    )
    return _close(law, closed_walk_totals(c, 4), rtol=1e-9, atol=0.0)


# --------------------------------------------------------------------- #
# entry points
# --------------------------------------------------------------------- #
def _bisection(n: int) -> list[np.ndarray]:
    half = max(1, n // 2)
    return [np.arange(half, dtype=np.int64), np.arange(half, n, dtype=np.int64)]


def _build(product: str, el_a: EdgeList, el_b: EdgeList) -> EdgeList:
    if product == PLAIN:
        return kron_product(el_a, el_b)
    return kron_with_full_loops(el_a, el_b)


def validate_product(
    el_a: EdgeList,
    el_b: EdgeList,
    parts_a: list[np.ndarray] | None = None,
    parts_b: list[np.ndarray] | None = None,
    *,
    rows: list[str] | tuple[str, ...] | None = None,
) -> ValidationReport:
    """Check Kronecker laws against direct computation on the product.

    Parameters
    ----------
    el_a, el_b:
        Symmetric, loop-free factors (rows on ``(A + I) (x) (B + I)`` add
        the self loops themselves).  Distance rows need connected factors;
        their direct computation raises otherwise.
    parts_a, parts_b:
        Factor partitions for the community rows; a bisection when omitted.
    rows:
        Names from :data:`ROWS`, checked in the given order; all rows by
        default.  :data:`PAPER_TABLE` selects the Section-I table.
    """
    for el, name in ((el_a, "A"), (el_b, "B")):
        require_symmetric(el, name)
        require_no_self_loops(el, name)
    names = list(ROWS) if rows is None else list(rows)
    unknown = [n for n in names if n not in ROWS]
    if unknown:
        raise ExperimentError(f"unknown rows: {unknown}; known: {list(ROWS)}")
    factors = _Factors(
        el_a,
        el_b,
        _bisection(el_a.n) if parts_a is None else parts_a,
        _bisection(el_b.n) if parts_b is None else parts_b,
    )
    products: dict[str, EdgeList] = {}
    report = ValidationReport()
    for name in names:
        row = ROWS[name]
        if row.product not in products:
            products[row.product] = _build(row.product, el_a, el_b)
        passed, detail = row.check(factors, products[row.product])
        report.results.append(CheckResult(name, bool(passed), detail, row.relation))
    return report


def validate_algorithm(
    algorithm: Callable[[EdgeList], np.ndarray],
    ground_truth: np.ndarray,
    graph: EdgeList,
    *,
    name: str = "algorithm",
    rtol: float = 0.0,
    atol: float = 0.0,
) -> CheckResult:
    """Score a user-supplied per-vertex/per-edge analytic against ground truth.

    The algorithm runs on the (large) materialized graph; ``ground_truth``
    comes from the (small) factors via :mod:`repro.groundtruth`.  Exact by
    default; pass tolerances for approximate algorithms.
    """
    got = np.asarray(algorithm(graph))
    if rtol == 0.0 and atol == 0.0:
        passed, detail = _exact(ground_truth, got)
    else:
        passed, detail = _close(ground_truth, got, rtol=rtol, atol=atol)
    return CheckResult(name, passed, detail)
