"""One differential oracle for the whole generation matrix.

The product is a designed, exactly-known graph, so one serial reference
(``kron_product`` for the exact model, ``skg_sample_edges`` for the
stochastic one) stands in for every pairwise "path X equals path Y"
comparison: draw any :class:`GenerationPlan` the drivers accept, any world
size, a chunk size that either splits single A-edge expansions or swallows
the whole product, and the distributed output must be the reference as a
multiset -- with every rank storing exactly the edges the storage map
assigns it, in the product's id dtype (``id_dtype(n_C)``, also when it
stores nothing), and ``pipeline="async"`` storing byte for byte what
``"sync"`` stores.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import GenerationPlan, KronPair, generate_distributed
from repro.distributed.shuffle import edge_owners
from repro.distributed.supervisor import canonical_edges
from repro.graph import EdgeList, erdos_renyi
from repro.kronecker import id_dtype, kron_product
from repro.skg.distributed import generate_skg_distributed
from repro.skg.model import SKGSpec
from repro.skg.sample import skg_sample_edges

SCHEMES = ("1d", "1d-pipelined", "2d")
STORAGES = (None, "source_block", "edge_hash")
SPECS = [
    SKGSpec.from_library("polblogs", k=5, skg_seed=seed) for seed in (0, 7)
]
#: The factor pair of the seeded process-backend handful.
PAIR = KronPair(erdos_renyi(7, 0.5, seed=11), erdos_renyi(5, 0.6, seed=12))


@st.composite
def exact_factors(draw):
    def factor(max_n):
        n = draw(st.integers(min_value=1, max_value=max_n))
        p = draw(st.sampled_from([0.0, 0.4, 0.8]))
        return erdos_renyi(n, p, seed=draw(st.integers(0, 2**16)))

    return KronPair(factor(7), factor(6))


@st.composite
def plans(draw):
    scheme = draw(st.sampled_from(SCHEMES))
    pipelines = ("sync", "async") if scheme == "1d-pipelined" else ("sync",)
    spec = draw(st.sampled_from([None, *SPECS]))
    return GenerationPlan(
        scheme=scheme,
        storage=draw(st.sampled_from(STORAGES)),
        # 3 splits a single A-edge's expansion; 1 << 20 swallows everything.
        chunk_size=draw(st.sampled_from([3, 17, 1 << 20])),
        pipeline=draw(st.sampled_from(pipelines)),
        wire=draw(st.sampled_from(["raw", "varint"])),
        source=draw(exact_factors()) if spec is None else spec,
    )


def run(plan: GenerationPlan, nranks: int, backend: str = "thread"):
    """The plan through its source's public driver, and its serial
    reference."""
    source = plan.source
    options = {
        f.name: getattr(plan, f.name)
        for f in dataclasses.fields(plan)
        if f.name != "source"
    }
    if isinstance(source, SKGSpec):
        got, outputs = generate_skg_distributed(
            source, nranks, backend=backend, **options
        )
        return got, outputs, skg_sample_edges(source)
    got, outputs = generate_distributed(
        source.a, source.b, nranks, backend=backend, **options
    )
    return got, outputs, kron_product(source.a, source.b)


def assert_matches_oracle(plan, got, outputs, reference: EdgeList):
    assert got == reference  # EdgeList equality is multiset equality
    assert sum(len(o.edges) for o in outputs) == reference.m_directed
    assert sum(o.generated for o in outputs) == reference.m_directed
    assert {o.edges.dtype for o in outputs} == {id_dtype(reference.n)}
    if plan.exchanges:
        for out in outputs:
            owners = edge_owners(
                out.edges, len(outputs),
                scheme=plan.effective_storage, n=reference.n,
            )
            assert np.all(owners == out.rank)


class TestPlanOracle:
    @given(plan=plans(), nranks=st.integers(min_value=1, max_value=5))
    @settings(max_examples=120, deadline=None)
    def test_any_plan_equals_serial_reference(self, plan, nranks):
        got, outputs, reference = run(plan, nranks)
        assert_matches_oracle(plan, got, outputs, reference)

    @given(
        plan=plans().filter(lambda p: p.streams),
        nranks=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_async_is_bit_identical_to_sync_per_rank(self, plan, nranks):
        stored = {}
        for pipeline in ("sync", "async"):
            _, outputs, _ = run(
                dataclasses.replace(plan, pipeline=pipeline), nranks
            )
            stored[pipeline] = [o.edges for o in outputs]
        for sync, overlapped in zip(stored["sync"], stored["async"]):
            assert np.array_equal(sync, overlapped)

    @pytest.mark.parametrize(
        "plan,nranks",
        [
            (GenerationPlan("1d", "source_block", source=PAIR), 3),
            (GenerationPlan("2d", "edge_hash", chunk_size=5, source=PAIR), 4),
            (GenerationPlan("2d", None, source=SPECS[0]), 2),
            (GenerationPlan("1d-pipelined", None, 7, "async", "varint",
                            source=PAIR), 3),
            (GenerationPlan("1d-pipelined", "edge_hash", 3, "sync", "raw",
                            source=SPECS[1]), 2),
        ],
        ids=lambda value: value.token() if isinstance(value, GenerationPlan)
        else str(value),
    )
    def test_seeded_handful_on_process_backend(self, plan, nranks):
        got, outputs, reference = run(plan, nranks, "process")
        assert_matches_oracle(plan, got, outputs, reference)
        # Same answer, canonically ordered, as the in-process world.
        threaded, _, _ = run(plan, nranks)
        assert np.array_equal(
            canonical_edges(got.edges), canonical_edges(threaded.edges)
        )
