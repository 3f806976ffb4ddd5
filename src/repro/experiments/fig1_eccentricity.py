"""Experiment E3: Fig. 1 -- eccentricity distributions of a gnutella product.

Paper protocol: take the gnutella08 P2P graph, form the undirected largest
connected component, add all self loops, build ``C = A (x) A`` with the
distributed generator, then compare (i) the vertex eccentricity histogram of
A, and (ii) the histogram of C computed by an expensive direct algorithm
([3]-style pruning) against the Cor. 4 composition of A's eccentricities.

Our run substitutes a seeded scale-free stand-in for gnutella08 (see
DESIGN.md section 2) at a scale whose product materializes on a laptop; the
claim verified -- the max-composition law, exactly, at every vertex -- is
scale- and topology-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analytics.eccentricity import exact_eccentricities, pruned_eccentricities
from repro.distributed.generator import generate_distributed
from repro.graph.datasets import gnutella_like
from repro.graph.edgelist import EdgeList
from repro.groundtruth.eccentricity import (
    eccentricity_histogram_product,
    eccentricity_product_all,
)

__all__ = ["Fig1Result", "run_fig1"]


@dataclass(frozen=True)
class Fig1Result:
    """Fig. 1 reproduction artifacts."""

    n_a: int
    m_a: int
    n_c: int
    m_c: int
    hist_a: dict[int, int]
    hist_c_direct: dict[int, int]
    hist_c_groundtruth: dict[int, int]
    direct_num_bfs: int
    law_holds_everywhere: bool

    def to_text(self) -> str:
        """Histogram table in the shape of the paper's Fig. 1 panels."""
        eccs = sorted(
            set(self.hist_a) | set(self.hist_c_direct) | set(self.hist_c_groundtruth)
        )
        lines = [
            f"A: n={self.n_a} m={self.m_a};  C = A (x) A: n={self.n_c} m={self.m_c}",
            f"direct eccentricity used {self.direct_num_bfs} BFS sweeps",
            f"Cor. 4 exact at every vertex: {self.law_holds_everywhere}",
            "ecc   count(A)   count(C) direct   count(C) ground truth",
        ]
        for e in eccs:
            lines.append(
                f"{e:>3}   {self.hist_a.get(e, 0):>8}   {self.hist_c_direct.get(e, 0):>15}"
                f"   {self.hist_c_groundtruth.get(e, 0):>21}"
            )
        return "\n".join(lines)


def _hist(values: np.ndarray) -> dict[int, int]:
    uniq, cnt = np.unique(values, return_counts=True)
    return {int(u): int(c) for u, c in zip(uniq, cnt)}


def run_fig1(
    factor: EdgeList | None = None,
    *,
    factor_n: int = 120,
    nranks: int = 4,
    seed: int = 20190814,
) -> Fig1Result:
    """Run the Fig. 1 pipeline end to end.

    Parameters
    ----------
    factor:
        Preprocessed factor A (LCC, symmetric, full self loops).  Built
        from :func:`repro.graph.datasets.gnutella_like` when omitted.
    factor_n:
        Stand-in size when ``factor`` is omitted.  The default keeps the
        materialized product (~14K vertices, ~1M edges) around ten seconds
        end to end; raise it toward 6300 for paper-scale factors (the
        direct eccentricity pass is then the dominant cost, as in the
        paper).
    nranks:
        Ranks for the distributed generation step (paper used 1.57M; we
        verify correctness, not scale, here).
    """
    a = factor if factor is not None else gnutella_like(n=factor_n, seed=seed)
    # --- distributed generation of C = A (x) A (paper Section III) -------
    c, _outputs = generate_distributed(a, a, nranks, scheme="2d")
    # --- direct (expensive) eccentricities on C --------------------------
    direct = exact_eccentricities(c)
    # --- ground truth from the factor alone ------------------------------
    ecc_a = exact_eccentricities(a).eccentricities
    law_all = eccentricity_product_all(ecc_a, ecc_a)
    hist_gt = eccentricity_histogram_product(ecc_a, ecc_a)
    return Fig1Result(
        n_a=a.n,
        m_a=a.num_undirected_edges,
        n_c=c.n,
        m_c=c.num_undirected_edges,
        hist_a=_hist(ecc_a),
        hist_c_direct=_hist(direct.eccentricities),
        hist_c_groundtruth=hist_gt,
        direct_num_bfs=direct.num_bfs,
        law_holds_everywhere=bool(np.array_equal(law_all, direct.eccentricities)),
    )
