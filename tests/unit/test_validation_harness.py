"""Unit tests for repro.validation: the one formula-vs-direct harness."""

from unittest import mock

import numpy as np
import pytest

from repro.analytics import vertex_triangles
from repro.errors import AssumptionError, ExperimentError
from repro.graph import EdgeList, clique, path
from repro.groundtruth import factor_triangle_stats, vertex_triangles_full_loops
from repro.kronecker import kron_product, kron_with_full_loops
from repro.validation import (
    PAPER_TABLE,
    ROWS,
    CheckResult,
    validate_algorithm,
    validate_product,
)
from tests.conftest import drop_one_edge, random_connected_factor

#: Every law name either harness checked before they became one -- the
#: checks of ``validate`` and the rows of the former Section-I table command
#: (with its ``extended=`` rows) -- and the row that checks it now.
PARENT_LAWS = {
    "sizes": "sizes_full_loops",
    "degrees": "degrees_full_loops",
    "vertex_triangles": "vertex_triangles_full_loops",
    "edge_triangles": "edge_triangles_full_loops",
    "global_triangles": "global_triangles_full_loops",
    "eccentricity": "eccentricity",
    "closeness": "closeness",
    "Vertices": "vertices",
    "Edges": "edges",
    "Degree": "degrees",
    "Vertex triangles": "vertex_triangles",
    "Edge triangles": "edge_triangles",
    "Global triangles": "global_triangles",
    "Clustering coeff.": "clustering",
    "Vertex eccentricity": "eccentricity",
    "Graph diameter": "diameter",
    "# Communities": "communities",
    "Internal density": "internal_density",
    "External density": "external_density",
    "# Components (Weichsel)": "components",
    "Top eigenvalue": "top_eigenvalue",
    "Closed walks h<=4": "closed_walks",
}


@pytest.fixture
def factors():
    return random_connected_factor(8, seed=141), random_connected_factor(7, seed=142)


class TestValidateProduct:
    def test_all_checks_pass(self, factors):
        a, b = factors
        report = validate_product(a, b)
        assert report.passed, report.to_text()
        assert [r.name for r in report.results] == list(ROWS)

    def test_subset_of_checks(self, factors):
        a, b = factors
        report = validate_product(a, b, rows=["degrees_full_loops", "vertices"])
        assert [r.name for r in report.results] == ["degrees_full_loops", "vertices"]
        assert report.passed

    def test_unknown_check_rejected(self, factors):
        a, b = factors
        with pytest.raises(ExperimentError, match="nope"):
            validate_product(a, b, rows=["nope"])

    def test_loopy_input_rejected(self, factors):
        a, b = factors
        with pytest.raises(AssumptionError):
            validate_product(a.with_full_self_loops(), b)

    def test_asymmetric_input_rejected(self, factors):
        _, b = factors
        with pytest.raises(AssumptionError):
            validate_product(EdgeList.from_pairs([(0, 1)], n=2), b)

    def test_report_text_format(self, factors):
        a, b = factors
        text = validate_product(a, b, rows=["sizes_full_loops"]).to_text()
        assert "[PASS] sizes_full_loops" in text
        assert "1/1 checks passed" in text

    def test_each_product_built_once_and_only_if_read(self, factors):
        a, b = factors
        with mock.patch("repro.validation.kron_product", wraps=kron_product) as plain, \
                mock.patch("repro.validation.kron_with_full_loops",
                           wraps=kron_with_full_loops) as loops:
            validate_product(a, b, rows=["edges", "degrees", "clustering"])
            assert (plain.call_count, loops.call_count) == (1, 0)
            validate_product(a, b)
            assert (plain.call_count, loops.call_count) == (2, 1)


class TestRowSet:
    def test_every_parent_law_has_one_row(self):
        assert set(PARENT_LAWS.values()) == set(ROWS)
        assert len(ROWS) == 21

    def test_paper_table_is_the_first_twelve_rows(self):
        assert PAPER_TABLE == tuple(ROWS)[:12]
        assert [ROWS[n].relation for n in PAPER_TABLE].count("bound") == 3


#: (builder patched, A, B, exact rows that must fail).  A dropped edge in
#: a triangle of K3 (x) K3 moves every edge-reading law on A (x) B except
#: the component count; a dropped K2 (x) P3 edge splits a component; on
#: (A+I) (x) (B+I) = K4 with loops every exact row reading it moves.
WRONG_PRODUCTS = [
    ("kron_product", kron_product, clique(3), clique(3),
     {"edges", "degrees", "vertex_triangles", "edge_triangles",
      "global_triangles", "top_eigenvalue", "closed_walks"}),
    ("kron_product", kron_product, clique(2), path(3),
     {"edges", "degrees", "components", "closed_walks"}),
    ("kron_with_full_loops", kron_with_full_loops, clique(2), clique(2),
     {"sizes_full_loops", "degrees_full_loops", "vertex_triangles_full_loops",
      "edge_triangles_full_loops", "global_triangles_full_loops",
      "eccentricity", "diameter", "closeness"}),
]

#: Exact rows that read no product edge: a dropped edge cannot move them.
EDGE_BLIND = {"vertices", "communities"}


class TestWrongProduct:
    @pytest.mark.parametrize(
        "builder,build,a,b,expect", WRONG_PRODUCTS,
        ids=["plain-triangle", "plain-bridge", "full-loops"],
    )
    def test_dropped_edge_fails(self, builder, build, a, b, expect):
        """Every exact row the dropped edge moves fails, and no other."""
        with mock.patch(f"repro.validation.{builder}", drop_one_edge(build)):
            report = validate_product(a, b)
        failed = {r.name for r in report.failures() if r.relation == "exact"}
        assert failed == expect, report.to_text()
        assert not report.passed
        assert validate_product(a, b).passed

    def test_scenarios_cover_every_exact_row(self):
        exact = {n for n, row in ROWS.items() if row.relation == "exact"}
        covered = set().union(*(case[-1] for case in WRONG_PRODUCTS))
        assert covered == exact - EDGE_BLIND


class TestValidateAlgorithm:
    def test_exact_pass(self, factors):
        a, b = factors
        c = kron_with_full_loops(a, b)
        truth = vertex_triangles_full_loops(
            factor_triangle_stats(a), factor_triangle_stats(b)
        )
        result = validate_algorithm(vertex_triangles, truth, c, name="tc")
        assert result.passed
        assert "exact match" in result.detail

    def test_wrong_algorithm_fails(self, factors):
        a, b = factors
        c = kron_with_full_loops(a, b)
        truth = vertex_triangles_full_loops(
            factor_triangle_stats(a), factor_triangle_stats(b)
        )

        def buggy(graph):
            return vertex_triangles(graph) + 1  # off by one everywhere

        result = validate_algorithm(buggy, truth, c)
        assert not result.passed
        assert "differ" in result.detail

    def test_approximate_tolerance(self, factors):
        a, b = factors
        c = kron_with_full_loops(a, b)
        truth = vertex_triangles_full_loops(
            factor_triangle_stats(a), factor_triangle_stats(b)
        ).astype(float)

        def approx(graph):
            return vertex_triangles(graph) * 1.001

        assert not validate_algorithm(approx, truth, c).passed
        assert validate_algorithm(approx, truth, c, rtol=0.01).passed

    def test_shape_mismatch(self, factors):
        a, b = factors
        c = kron_with_full_loops(a, b)
        result = validate_algorithm(lambda g: np.zeros(3), np.zeros(4), c)
        assert not result.passed
        assert "shape" in result.detail


class TestCheckResult:
    def test_str_format(self):
        assert str(CheckResult("x", True, "ok")) == "[PASS] x: ok"
        assert str(CheckResult("x", False, "bad")) == "[FAIL] x: bad"
        assert str(CheckResult("x", True, "ok", "bound")) == "[PASS] x (bound): ok"
