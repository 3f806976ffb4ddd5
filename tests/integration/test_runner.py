"""Integration test: the full experiment runner (E1-E8 + A1/A2 + S1)."""

import pytest

import re

from repro.experiments import render_report, run_all
from repro.validation import PAPER_TABLE


@pytest.fixture(scope="module")
def results():
    return run_all(fast=True)


class TestRunAll:
    def test_all_fields_populated(self, results):
        for field in (
            "e1_scaling_laws", "e2_gnutella_table", "e3_fig1", "e4_fig2",
            "e5_remark1", "e6_closeness", "e7_triangles", "e8_rejection",
            "a1_exploit", "a2_artifacts", "s1_skg_validation",
        ):
            assert getattr(results, field) is not None

    def test_headline_claims(self, results):
        assert results.e1_scaling_laws.all_hold
        assert results.e2_gnutella_table.materialized_check_ok
        assert results.e3_fig1.law_holds_everywhere
        assert results.e4_fig2.thm6_exact_everywhere
        assert results.e5_remark1.crossover_ranks() is not None
        assert all(p.max_abs_diff < 1e-9 for p in results.e6_closeness.points)
        assert results.e7_triangles.points[-1].global_speedup > 10
        assert results.e8_rejection.monotone
        assert results.a2_artifacts.num_missing_primes > 0
        assert results.s1_skg_validation.passed

    def test_report_renders_every_section(self, results):
        report = render_report(results)
        for marker in ("## E1", "## E2", "## E3", "## E4", "## E5",
                       "## E6", "## E7", "## E8", "## A1", "## A2",
                       "## S1"):
            assert marker in report

    def test_report_reflects_ground_truth_outcomes(self, results):
        report = render_report(results)
        assert "Cor. 4 exact at every vertex: True" in report
        assert "Thm. 6 exact at all 1089 product communities: True" in report

    def test_e1_renders_the_paper_table_in_order(self, results):
        for _name, rep in results.e1_scaling_laws.reports:
            assert [r.name for r in rep.results] == list(PAPER_TABLE)
        text = results.e1_scaling_laws.to_text()
        for chunk in text.split("\n\n"):
            rendered = re.findall(r"^\[(?:PASS|FAIL)\] (\w+)", chunk, re.M)
            assert rendered == list(PAPER_TABLE)

    def test_report_heads_each_section_with_its_seconds(self, results):
        report = render_report(results)
        headings = re.findall(r"^## .* \((\d+\.\d\d) s\)$", report, re.M)
        assert len(headings) == 11
        assert set(results.seconds) == {
            name for name in vars(results) if name != "seconds"
        }
