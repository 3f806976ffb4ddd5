"""Experiment E1: the Section-I scaling-law table over a factor family.

Runs the :data:`repro.validation.PAPER_TABLE` rows of the formula-vs-direct
harness on a battery of factor pairs spanning the structural regimes the
individual theorems assume (dense, sparse, triangle-rich, triangle-free,
block-structured), and aggregates the outcome: the paper's table should hold --
every exact row exactly, every bound row as an inequality -- on all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.generators import (
    clique,
    cycle,
    disjoint_cliques,
    erdos_renyi,
    stochastic_block_model,
)
from repro.validation import PAPER_TABLE, ValidationReport, validate_product

__all__ = ["ScalingLawSweep", "run_table_scaling_laws", "default_factor_pairs"]


def default_factor_pairs(seed: int = 20190814):
    """(name, A, B) battery covering the theorems' structural regimes.

    All factors here are connected (the distance rows require it).
    """
    return [
        ("clique x cycle", clique(5), cycle(6)),
        ("clique x clique", clique(4), clique(6)),
        ("er x er", erdos_renyi(12, 0.45, seed=seed), erdos_renyi(10, 0.5, seed=seed + 1)),
        (
            "sbm x sbm",
            stochastic_block_model([6, 6], 0.95, 0.25, seed=seed + 2),
            stochastic_block_model([5, 5], 0.95, 0.3, seed=seed + 3),
        ),
        ("dense-er x clique", erdos_renyi(9, 0.6, seed=seed + 4), clique(5)),
    ]


@dataclass
class ScalingLawSweep:
    """Per-pair reports of experiment E1."""

    reports: list[tuple[str, ValidationReport]] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        """``True`` iff every law held on every factor pair."""
        return all(rep.passed for _n, rep in self.reports)

    def to_text(self) -> str:
        """Concatenated tables, one per factor pair."""
        chunks = []
        for name, rep in self.reports:
            status = "ALL HOLD" if rep.passed else "FAILURES"
            chunks.append(f"== {name} [{status}] ==\n{rep.to_text()}")
        return "\n\n".join(chunks)


def run_table_scaling_laws(pairs=None, seed: int = 20190814) -> ScalingLawSweep:
    """Evaluate the full table on each factor pair."""
    pairs = pairs if pairs is not None else default_factor_pairs(seed)
    sweep = ScalingLawSweep()
    for name, a, b in pairs:
        sweep.reports.append((name, validate_product(a, b, rows=PAPER_TABLE)))
    return sweep
