"""Unit tests for the experiment drivers (reduced scale)."""

import numpy as np
import pytest

from repro.experiments import (
    run_closeness_methods,
    run_fig1,
    run_fig2,
    run_rejection_family,
    run_remark1,
    run_sublinear_triangles,
    run_table_gnutella,
    run_table_scaling_laws,
)


class TestFig1:
    def test_small_run_law_holds(self):
        r = run_fig1(factor_n=60, nranks=2)
        assert r.law_holds_everywhere
        assert r.n_c == r.n_a**2

    def test_histograms_consistent(self):
        r = run_fig1(factor_n=60, nranks=1)
        assert r.hist_c_direct == r.hist_c_groundtruth
        assert sum(r.hist_a.values()) == r.n_a
        assert sum(r.hist_c_direct.values()) == r.n_c

    def test_text_renders(self):
        r = run_fig1(factor_n=60)
        text = r.to_text()
        assert "Cor. 4 exact at every vertex: True" in text


class TestFig2:
    def test_small_run_all_laws(self):
        r = run_fig2(num_blocks=5, block_size=10)
        assert r.thm6_exact_everywhere
        assert r.cor6_holds
        assert r.cor7_derived_holds
        assert r.num_comms_c == 25

    def test_density_separation_survives_product(self):
        r = run_fig2(num_blocks=5, block_size=12)
        assert r.rho_in_c.min() > r.rho_out_c.max()

    def test_unmaterialized_mode(self):
        r = run_fig2(num_blocks=4, block_size=10, materialize=False)
        assert r.n_c == r.n_a**2
        assert r.num_comms_c == 16

    def test_factor_requires_partition(self):
        from repro.errors import AssumptionError
        from repro.graph import clique

        with pytest.raises(AssumptionError):
            run_fig2(factor=clique(6))


class TestGnutellaTable:
    def test_counting_laws(self):
        r = run_table_gnutella(factor_n=120)
        assert r.materialized_check_ok
        assert r.n_c == r.n_a**2
        assert r.paper_n_c_law == 6300 * 6300

    def test_text_mentions_sequoia(self):
        r = run_table_gnutella(factor_n=120)
        assert "SEQUOIA" in r.to_text()


class TestScalingLawsSweep:
    def test_default_battery_all_hold(self):
        sweep = run_table_scaling_laws()
        assert sweep.all_hold, sweep.to_text()
        assert len(sweep.reports) == 5

    def test_every_row_holds_on_the_battery(self):
        from repro.experiments.table_scaling_laws import default_factor_pairs
        from repro.validation import validate_product

        for name, a, b in default_factor_pairs():
            report = validate_product(a, b)
            assert report.passed, f"{name}\n{report.to_text()}"


class TestRemark1:
    def test_runs_and_diverges(self):
        r = run_remark1(factor_n=20, measured_ranks=(1, 2),
                        modeled_ranks=(1, 100, 10**4, 10**6, 10**8))
        assert len(r.measured) == 4  # 2 schemes x 2 rank counts
        co = r.crossover_ranks()
        assert co is not None and co > 10**4

    def test_modeled_weak_2d_flat_1d_grows(self):
        r = run_remark1(factor_n=20, measured_ranks=(1,),
                        modeled_ranks=(1, 10**6, 10**8))
        t1d = [p.time_seconds for p in r.modeled_weak_1d]
        t2d = [p.time_seconds for p in r.modeled_weak_2d]
        assert t1d[-1] > 10 * t2d[-1]


class TestClosenessMethods:
    def test_methods_agree(self):
        r = run_closeness_methods(factor_sizes=(40, 80), subset_sizes=(3,))
        assert all(p.max_abs_diff < 1e-9 for p in r.points)

    def test_speedup_grows_with_factor_size(self):
        r = run_closeness_methods(factor_sizes=(40, 160), subset_sizes=(6,))
        assert r.points[-1].speedup > r.points[0].speedup


class TestSublinearTriangles:
    def test_ground_truth_exact_and_fast(self):
        # verify=True asserts exactness inside the driver; the speedup claim
        # needs a product large enough that timing noise can't invert it
        r = run_sublinear_triangles(factor_sizes=(15, 60), verify=True)
        assert r.points[-1].global_speedup > 2.0

    def test_text_renders(self):
        r = run_sublinear_triangles(factor_sizes=(15,))
        assert "tau" in r.to_text()


class TestRejectionFamily:
    def test_statistics_track_expectations(self):
        r = run_rejection_family(factor_n=16, num_seeds=4)
        assert r.monotone
        for p in r.points:
            assert p.edge_rel_err < 0.05
            assert p.tau_rel_err < 0.15

    def test_nu_one_exact(self):
        r = run_rejection_family(factor_n=14, num_seeds=2)
        full = [p for p in r.points if p.nu == 1.0][0]
        assert full.edge_rel_err == 0.0
        assert full.tau_rel_err == 0.0
