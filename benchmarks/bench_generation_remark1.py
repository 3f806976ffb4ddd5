"""E5: Remark 1 -- distributed generation scaling, 1-D vs 2-D.

Measures thread-backend generation across rank counts for both partitioning
schemes (the laptop anchor), then prints the cost-model extrapolation to
SEQUOIA-class rank counts where the schemes diverge.
"""

import pytest

from repro.distributed import generate_distributed
from repro.experiments.remark1_scaling import run_remark1
from repro.kronecker import kron_product


@pytest.mark.parametrize("scheme", ["1d", "2d"])
@pytest.mark.parametrize("nranks", [1, 2, 4, 8])
def test_bench_generation(benchmark, bench_er_pair, scheme, nranks):
    """Wall-clock of distributed generation per scheme and rank count."""
    a, b = bench_er_pair
    c, _ = benchmark.pedantic(
        generate_distributed,
        args=(a, b, nranks),
        kwargs={"scheme": scheme},
        rounds=3,
        iterations=1,
    )
    assert c.m_directed == a.m_directed * b.m_directed


@pytest.mark.parametrize("storage", [None, "source_block", "edge_hash"])
def test_bench_generation_with_shuffle(benchmark, bench_er_pair, storage):
    """Storage-shuffle overhead on top of raw generation (4 ranks, 1-D)."""
    a, b = bench_er_pair
    c, _ = benchmark.pedantic(
        generate_distributed,
        args=(a, b, 4),
        kwargs={"scheme": "1d", "storage": storage},
        rounds=3,
        iterations=1,
    )
    assert c == kron_product(a, b)


def test_bench_remark1_experiment(benchmark, capsys):
    """Whole E5 driver: measured anchors + modeled curves."""
    result = benchmark.pedantic(
        run_remark1, kwargs={"factor_n": 40}, rounds=1, iterations=1
    )
    crossover = result.crossover_ranks()
    assert crossover is not None  # 1-D must hit its cap in the modeled sweep
    with capsys.disabled():
        print("\n" + result.to_text())
