"""Experiment E5: Remark 1 -- 1-D vs 2-D partitioning scalability.

Two sweeps:

* **Measured** strong scaling at laptop rank counts (thread backend):
  generation wall-clock per scheme, verifying the distributed path and
  anchoring the cost model.
* **Modeled** strong and weak scaling out to millions of ranks, where the
  1-D scheme's parallelism cap (``|E_A|`` ranks) bites and the 2-D scheme
  keeps scaling -- the crossover Remark 1 predicts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.distributed.costmodel import (
    CostModel,
    ScalingPoint,
    strong_scaling_curve,
    weak_scaling_curve,
)
from repro.distributed.generator import generate_distributed
from repro.graph.edgelist import EdgeList
from repro.graph.generators import erdos_renyi

__all__ = ["Remark1Result", "run_remark1"]


@dataclass(frozen=True)
class MeasuredPoint:
    """One measured generation run."""

    scheme: str
    ranks: int
    seconds: float
    edges: int


@dataclass
class Remark1Result:
    """Measured anchor points plus modeled large-scale curves."""

    measured: list[MeasuredPoint] = field(default_factory=list)
    modeled_strong_1d: list[ScalingPoint] = field(default_factory=list)
    modeled_strong_2d: list[ScalingPoint] = field(default_factory=list)
    modeled_weak_1d: list[ScalingPoint] = field(default_factory=list)
    modeled_weak_2d: list[ScalingPoint] = field(default_factory=list)

    def crossover_ranks(self) -> int | None:
        """Smallest modeled rank count where 1-D has hit its cap.

        Defined as 2-D beating 1-D by at least 2x (ceil-rounding noise in
        the grid shapes can make either scheme marginally faster at small
        R; the Remark-1 effect is the sustained divergence once R exceeds
        ``|E_A|``).
        """
        for p1, p2 in zip(self.modeled_strong_1d, self.modeled_strong_2d):
            if p2.time_seconds * 2.0 < p1.time_seconds:
                return p1.ranks
        return None

    def to_text(self) -> str:
        """Measured table + modeled curves, one line per point."""
        lines = ["measured (thread backend):",
                 "scheme  ranks  seconds      edges"]
        for m in self.measured:
            lines.append(f"{m.scheme:>6}  {m.ranks:>5}  {m.seconds:8.4f}  {m.edges:>9}")
        lines.append("modeled strong scaling (time s): ranks, 1d, 2d")
        for p1, p2 in zip(self.modeled_strong_1d, self.modeled_strong_2d):
            lines.append(
                f"  R={p1.ranks:<9} 1d={p1.time_seconds:10.4g}  2d={p2.time_seconds:10.4g}"
            )
        lines.append("modeled weak scaling (time s; flat = weak-scalable): ranks, 1d, 2d")
        for p1, p2 in zip(self.modeled_weak_1d, self.modeled_weak_2d):
            lines.append(
                f"  R={p1.ranks:<9} 1d={p1.time_seconds:10.4g}  2d={p2.time_seconds:10.4g}"
            )
        co = self.crossover_ranks()
        lines.append(f"modeled 1d/2d strong-scaling divergence at R = {co}")
        return "\n".join(lines)


def run_remark1(
    factor_a: EdgeList | None = None,
    factor_b: EdgeList | None = None,
    *,
    factor_n: int = 60,
    measured_ranks: tuple[int, ...] = (1, 2, 4, 8),
    modeled_ranks: tuple[int, ...] = (
        1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000,
    ),
    edges_per_rank: int = 10**4,
    seed: int = 20190814,
) -> Remark1Result:
    """Run the Remark-1 scaling experiment."""
    a = factor_a if factor_a is not None else erdos_renyi(factor_n, 0.2, seed=seed)
    b = factor_b if factor_b is not None else erdos_renyi(factor_n, 0.2, seed=seed + 1)

    result = Remark1Result()
    for scheme in ("1d", "2d"):
        for ranks in measured_ranks:
            t0 = time.perf_counter()
            c, _ = generate_distributed(a, b, ranks, scheme=scheme)
            dt = time.perf_counter() - t0
            result.measured.append(
                MeasuredPoint(scheme, ranks, dt, c.m_directed)
            )

    # calibrate the model from the fastest single-rank run
    anchor = min(
        (m for m in result.measured if m.ranks == 1), key=lambda m: m.seconds
    )
    model = CostModel.calibrated(anchor.edges, anchor.seconds)

    # modeled sweeps use balanced factors sized so the 1-D cap is visible:
    # |E_A| = |E_B| = sqrt(|E_C|) with |E_C| = max ranks * edges_per_rank
    import math

    m_factor = math.isqrt(max(modeled_ranks) * edges_per_rank)
    ranks_list = list(modeled_ranks)
    result.modeled_strong_1d = strong_scaling_curve(model, m_factor, m_factor, ranks_list, "1d")
    result.modeled_strong_2d = strong_scaling_curve(model, m_factor, m_factor, ranks_list, "2d")
    result.modeled_weak_1d = weak_scaling_curve(model, edges_per_rank, ranks_list, "1d")
    result.modeled_weak_2d = weak_scaling_curve(model, edges_per_rank, ranks_list, "2d")
    return result
