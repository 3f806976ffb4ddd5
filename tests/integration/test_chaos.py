"""Integration: the full seeded chaos matrix recovers bit-identically.

This is the `repro-kron chaos` CI job run in-process: every plan of the
default matrix (crash / drop / delay, targeted and probabilistic) against
both launcher backends, under a ~2s recv timeout.  Every cell must recover
to output bit-identical to the fault-free reference.
"""

import warnings

import pytest

from repro.cli import main
from repro.distributed.faults import default_fault_matrix
from repro.distributed.generator import KronPair
from repro.distributed.supervisor import run_chaos_matrix
from repro.graph.generators import clique, cycle


@pytest.mark.slow
class TestChaosMatrix:
    def test_full_matrix_recovers(self, tmp_path):
        plans = default_fault_matrix(seed=0, nranks=4)
        assert len(plans) == 9
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run_chaos_matrix(
                KronPair(clique(4), cycle(5)), 4,
                plans=plans,
                recv_timeout_s=2.0,
                checkpoint_root=tmp_path,
            )
        text = report.to_text()
        assert report.all_recovered, f"chaos matrix failed:\n{text}"
        assert len(report.outcomes) == 2 * len(plans)
        assert {o.backend for o in report.outcomes} == {"thread", "process"}
        # Crash and drop plans genuinely fired (needed a retry).
        fired = {
            o.plan for o in report.outcomes if o.attempts >= 2
        }
        assert any(p.startswith("crash") for p in fired)
        assert any(p.startswith("drop") for p in fired)


class TestSkgChaos:
    def test_skg_cells_recover_bit_identical(self, tmp_path):
        """A trimmed SKG chaos run: crash + drop plans, thread backend.

        The full SKG matrix (both backends, plus the socket subset) runs
        in CI; this in-process cut proves the stochastic model composes
        with fault recovery exactly like the exact model.
        """
        from repro.skg.model import SKGSpec

        spec = SKGSpec.from_library("polblogs", k=6, skg_seed=3)
        plans = [
            p for p in default_fault_matrix(seed=0, nranks=4)
            if p.name.startswith(("crash", "drop"))
        ][:4]
        assert plans
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run_chaos_matrix(
                spec, 4,
                plans=plans,
                backends=("thread",),
                recv_timeout_s=2.0,
                checkpoint_root=tmp_path,
            )
        assert report.all_recovered, f"skg chaos failed:\n{report.to_text()}"
        assert len(report.outcomes) == len(plans)


class TestChaosCli:
    def test_trimmed_cli_run(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(
                [
                    "chaos",
                    "--ranks", "4",
                    "--seed", "0",
                    "--backends", "thread",
                    "--timeout", "1.5",
                ]
            )
        out = capsys.readouterr().out
        assert code == 0
        assert "cells recovered" in out
        assert "FAILED" not in out
