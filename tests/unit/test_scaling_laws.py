"""The Section-I scaling-law table: the PAPER_TABLE rows of repro.validation."""

import numpy as np
import pytest

from repro.errors import AssumptionError
from repro.graph import clique, cycle
from repro.validation import (
    PAPER_TABLE,
    CheckResult,
    ValidationReport,
    validate_product,
)
from tests.conftest import random_connected_factor

BEYOND_THE_TABLE = ("components", "top_eigenvalue", "closed_walks")


def table(a, b, *args, rows=PAPER_TABLE):
    return validate_product(a, b, *args, rows=rows)


class TestEvaluate:
    def test_all_rows_present(self):
        rep = table(clique(4), cycle(5))
        names = [r.name for r in rep.results]
        assert names == [
            "vertices",
            "edges",
            "degrees",
            "vertex_triangles",
            "edge_triangles",
            "global_triangles",
            "clustering",
            "eccentricity",
            "diameter",
            "communities",
            "internal_density",
            "external_density",
        ]
        bounds = [r.name for r in rep.results if r.relation == "bound"]
        assert bounds == ["clustering", "internal_density", "external_density"]

    def test_all_hold_on_clique_cycle(self):
        rep = table(clique(4), cycle(5))
        assert rep.passed
        assert rep.failures() == []

    def test_all_hold_on_random_connected(self):
        a = random_connected_factor(9, seed=121)
        b = random_connected_factor(8, seed=122)
        rep = table(a, b)
        assert rep.passed, rep.to_text()

    def test_custom_partitions(self):
        a = clique(6)
        b = clique(4)
        parts_a = [np.arange(2), np.arange(2, 6)]
        parts_b = [np.arange(4)]
        rep = table(a, b, parts_a, parts_b)
        assert rep.passed
        (communities,) = [r for r in rep.results if r.name == "communities"]
        assert communities.detail == "law 2, direct 2"

    def test_rejects_loopy_factor(self):
        with pytest.raises(AssumptionError):
            table(clique(3).with_full_self_loops(), cycle(4))

    def test_rejects_asymmetric_factor(self):
        from repro.graph import EdgeList

        with pytest.raises(AssumptionError):
            table(EdgeList.from_pairs([(0, 1)], n=2), cycle(4))


class TestReport:
    def test_to_text_renders_all_rows(self):
        rep = table(clique(4), cycle(5))
        text = rep.to_text()
        for r in rep.results:
            assert r.name in text
        assert "[PASS] clustering (bound):" in text
        assert "12/12 checks passed" in text

    def test_failures_surface(self):
        rep = ValidationReport([CheckResult("fake", False, "law 1, direct 2")])
        assert not rep.passed
        assert len(rep.failures()) == 1
        assert "[FAIL] fake: law 1, direct 2" in rep.to_text()


class TestExtendedTable:
    def test_extended_rows_present_and_hold(self):
        rep = table(clique(4), cycle(5), rows=PAPER_TABLE + BEYOND_THE_TABLE)
        names = [r.name for r in rep.results]
        assert names[-3:] == list(BEYOND_THE_TABLE)
        assert rep.passed, rep.to_text()

    def test_extended_on_random_factors(self):
        a = random_connected_factor(8, seed=1201)
        b = random_connected_factor(7, seed=1202)
        rep = table(a, b, rows=PAPER_TABLE + BEYOND_THE_TABLE)
        assert rep.passed, rep.to_text()

    def test_weichsel_row_bipartite_case(self):
        # both bipartite factors -> product has 2 components; row must hold
        from repro.graph import path

        (comp_row,) = table(cycle(4), path(4), rows=["components"]).results
        assert comp_row.passed and comp_row.detail == "law 2, direct 2"

    def test_default_table_unchanged(self):
        rep = table(clique(4), cycle(5))
        assert len(rep.results) == 12
