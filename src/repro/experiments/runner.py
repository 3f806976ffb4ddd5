"""Run every experiment and render an EXPERIMENTS-style report.

``run_all()`` executes E1-E8 at laptop scale and returns their result
objects with each one's wall seconds; ``render_report(results)`` produces
the markdown recorded in EXPERIMENTS.md, one section per experiment headed
by its seconds.  ``python -m repro.experiments.runner`` prints the report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.experiments.ablation_artifacts import run_ablation_artifacts
from repro.experiments.ablation_exploit import run_ablation_exploit
from repro.experiments.closeness_methods import run_closeness_methods
from repro.experiments.fig1_eccentricity import run_fig1
from repro.experiments.fig2_community import run_fig2
from repro.experiments.rejection_family import run_rejection_family
from repro.experiments.remark1_scaling import run_remark1
from repro.experiments.skg_validation import run_skg_validation
from repro.experiments.sublinear_triangles import run_sublinear_triangles
from repro.experiments.table_gnutella import run_table_gnutella
from repro.experiments.table_scaling_laws import run_table_scaling_laws

__all__ = ["ExperimentResults", "run_all", "render_report"]


@dataclass
class ExperimentResults:
    """Bundle of all experiment outputs, keyed by DESIGN.md experiment id,
    plus each experiment's wall seconds under the same keys."""

    e1_scaling_laws: object
    e2_gnutella_table: object
    e3_fig1: object
    e4_fig2: object
    e5_remark1: object
    e6_closeness: object
    e7_triangles: object
    e8_rejection: object
    a1_exploit: object
    a2_artifacts: object
    s1_skg_validation: object
    seconds: dict[str, float]


def run_all(*, fast: bool = True, seed: int = 20190814) -> ExperimentResults:
    """Execute every experiment, timing each.

    ``fast=True`` uses the scaled-down defaults suited to CI; ``fast=False``
    grows the factors toward paper scale (minutes of runtime, ~GBs of RAM).
    """
    fig1_n = 120 if fast else 400
    fig2_block = 24 if fast else 120
    tri_sizes = (20, 40, 80) if fast else (40, 80, 160)
    closeness_sizes = (60, 120, 240) if fast else (120, 240, 480, 960)
    jobs = {
        "e1_scaling_laws": lambda: run_table_scaling_laws(seed=seed),
        "e2_gnutella_table": lambda: run_table_gnutella(
            factor_n=400 if fast else 1200, seed=seed
        ),
        "e3_fig1": lambda: run_fig1(factor_n=fig1_n, seed=seed),
        "e4_fig2": lambda: run_fig2(block_size=fig2_block, seed=seed),
        "e5_remark1": lambda: run_remark1(seed=seed),
        "e6_closeness": lambda: run_closeness_methods(closeness_sizes, seed=seed),
        "e7_triangles": lambda: run_sublinear_triangles(tri_sizes, seed=seed),
        "e8_rejection": lambda: run_rejection_family(seed=seed),
        "a1_exploit": lambda: run_ablation_exploit(
            factor_n=20 if fast else 40, seed=seed
        ),
        "a2_artifacts": lambda: run_ablation_artifacts(
            factor_n=80 if fast else 240, seed=seed
        ),
        "s1_skg_validation": lambda: run_skg_validation(
            num_seeds=3 if fast else 8, seed=seed
        ),
    }
    out: dict[str, object] = {}
    seconds: dict[str, float] = {}
    for key, job in jobs.items():
        start = time.perf_counter()
        out[key] = job()
        seconds[key] = time.perf_counter() - start
    return ExperimentResults(**out, seconds=seconds)


def render_report(results: ExperimentResults) -> str:
    """Markdown report with one section per experiment, each headed by its
    wall seconds."""
    sections = [
        ("E1 - Section I scaling-law table", "e1_scaling_laws"),
        ("E2 - Section III/V sizes table + SEQUOIA projection", "e2_gnutella_table"),
        ("E3 - Fig. 1 eccentricity distributions", "e3_fig1"),
        ("E4 - Fig. 2 community densities + Section VI-A table", "e4_fig2"),
        ("E5 - Remark 1 scaling (1-D vs 2-D)", "e5_remark1"),
        ("E6 - Section V-B closeness methods", "e6_closeness"),
        ("E7 - Section IV sublinear triangle ground truth", "e7_triangles"),
        ("E8 - Def. 8 rejection families", "e8_rejection"),
        ("A1 - structure-exploit ablation (Section IV-C)", "a1_exploit"),
        ("A2 - degree-artifact ablation (Section IV-C)", "a2_artifacts"),
        ("S1 - stochastic-tier validation (DESIGN.md section 13)",
         "s1_skg_validation"),
    ]
    parts = []
    for title, key in sections:
        text = getattr(results, key).to_text()
        parts.append(
            f"## {title} ({results.seconds[key]:.2f} s)\n\n```\n{text}\n```"
        )
    return "\n\n".join(parts)


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(render_report(run_all()))
