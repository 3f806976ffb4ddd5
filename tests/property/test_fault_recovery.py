"""Property: supervised recovery from injected faults is bit-exact.

For any seeded fault plan drawn from the chaos family, a supervised
generation run on random small factors must converge to output
bit-identical (canonical edge order) to the serial product
``kron_product(a, b)`` -- on the thread backend, in memory and persisted,
with explicit seeded process-backend cases (fork startup dominates, so
hypothesis drives only the in-process backend) that compare each rank's
shard with its placement.  Fault injection plus retry is a no-op on the
result, and the result is the right one.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import CheckpointStore, KronPair, generate_distributed
from repro.distributed.faults import FaultPlan, default_fault_matrix
from repro.distributed.shuffle import bucket_edges
from repro.distributed.supervisor import (
    SupervisorReport,
    canonical_edges,
    generate_to_directory,
    spmd_run_supervised,
)
from repro.graph import erdos_renyi
from repro.graph.generators import clique, cycle
from repro.kronecker import kron_product

NRANKS = 4


@st.composite
def factor_pair(draw):
    n_a = draw(st.integers(min_value=2, max_value=6))
    n_b = draw(st.integers(min_value=2, max_value=6))
    seed_a = draw(st.integers(min_value=0, max_value=2**16))
    seed_b = draw(st.integers(min_value=0, max_value=2**16))
    return (
        erdos_renyi(n_a, 0.6, seed=seed_a),
        erdos_renyi(n_b, 0.6, seed=seed_b),
    )


@st.composite
def fault_plan(draw):
    kind = draw(st.sampled_from(["crash", "drop", "delay"]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rank = draw(st.integers(min_value=0, max_value=NRANKS - 1))
    op = draw(st.integers(min_value=0, max_value=6))
    if kind == "crash":
        return FaultPlan(seed=seed, crash_rank=rank, crash_at=op)
    if kind == "drop":
        return FaultPlan(seed=seed, drop_at=((rank, op),))
    return FaultPlan(
        seed=seed, delay_prob=0.5, delay_s=0.002, fault_attempts=1 << 20
    )


@pytest.fixture(autouse=True)
def fast_timeouts(monkeypatch):
    # Dropped messages must stall for seconds, not the 60s default.
    monkeypatch.setenv("REPRO_RECV_TIMEOUT", "1.5")


class TestRecoveryIsBitExact:
    @given(factors=factor_pair(), plan=fault_plan())
    @settings(max_examples=20, deadline=None)
    def test_thread_backend(self, factors, plan):
        a, b = factors
        el, _ = generate_distributed(
            a, b, NRANKS, storage="source_block",
            runner=partial(spmd_run_supervised, fault_plan=plan, max_attempts=4),
        )
        np.testing.assert_array_equal(
            canonical_edges(el.edges), canonical_edges(kron_product(a, b).edges)
        )

    @given(factors=factor_pair(), plan=fault_plan())
    @settings(max_examples=10, deadline=None)
    def test_checkpointed_resume(self, factors, plan, tmp_path_factory):
        a, b = factors
        ckpt = tmp_path_factory.mktemp("ckpt")
        manifest = generate_to_directory(
            KronPair(a, b), ckpt, NRANKS, storage="source_block",
            fault_plan=plan, max_attempts=4,
        )
        el = CheckpointStore(ckpt).load_run(manifest)
        np.testing.assert_array_equal(
            canonical_edges(el.edges), canonical_edges(kron_product(a, b).edges)
        )

    @pytest.mark.parametrize("reference", ["fused", "legacy"])
    @pytest.mark.parametrize(
        "plan_index", [0, 3, 1]  # crash-r0-op0, drop-r0-op1, crash-r1-op3
    )
    def test_process_backend_seeded(self, reference, plan_index):
        """Recovered shards match two independent references, rank by rank:
        the fault-free run of the fused hot path, and the legacy serial
        pipeline (expand the product, argsort-bucket it by owner)."""
        a, b = clique(4), cycle(5)
        plan = default_fault_matrix(seed=0, nranks=NRANKS)[plan_index]
        if reference == "fused":
            _, clean = generate_distributed(a, b, NRANKS, storage="source_block")
            shards = [o.edges for o in clean]
        else:
            product = kron_product(a, b)
            shards = bucket_edges(
                product.edges, NRANKS, scheme="source_block", n=product.n,
                method="argsort",
            )
        rep = SupervisorReport()
        _, outputs = generate_distributed(
            a, b, NRANKS, storage="source_block", backend="process",
            runner=partial(
                spmd_run_supervised, fault_plan=plan, max_attempts=4,
                report=rep,
            ),
        )
        for out, want in zip(outputs, shards):
            np.testing.assert_array_equal(
                canonical_edges(out.edges), canonical_edges(want)
            )
        assert rep.attempts >= 2  # the fault really fired

    def test_replay_is_deterministic(self):
        a, b = clique(4), cycle(5)
        plan = FaultPlan(seed=123, crash_rank=1, crash_at=2)
        reports = []
        for _ in range(2):
            rep = SupervisorReport()
            generate_distributed(
                a, b, NRANKS, storage="source_block",
                runner=partial(spmd_run_supervised, fault_plan=plan, report=rep),
            )
            reports.append((rep.attempts, tuple(rep.failures)))
        assert reports[0] == reports[1]
