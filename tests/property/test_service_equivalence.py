"""Property tests: the service answers bit-identical to direct lazy calls.

Satellite guarantee of the serving layer: whatever the HTTP surface
returns for edge / degree / neighborhood / analytics queries must equal
what a direct :class:`repro.kronecker.lazy.KroneckerGraph` over the same
factors computes -- under cache eviction (``cache_size=1``) too.
"""

import asyncio
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import EdgeList
from repro.kronecker.lazy import KroneckerGraph
from repro.service.analytics import compute_property
from repro.service.loadgen import HTTPClient
from repro.service.server import KronService, ServiceConfig

EVICTABLE_PROPERTIES = ("summary", "triangles", "degree_histogram")


# ---- strategies ------------------------------------------------------- #
@st.composite
def edge_lists(draw, max_n=6, max_m=14):
    """Random small EdgeLists (dense enough for interesting products)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=m,
            max_size=m,
        )
    )
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return EdgeList(edges, n).deduplicate()


def payload_of(el):
    return {
        "edges": [[int(u), int(v)] for u, v in zip(el.src, el.dst)],
        "n": el.n,
    }


def canonical(value):
    """The cache's canonical JSON round trip (tuples -> lists, etc.)."""
    return json.loads(json.dumps(value, sort_keys=True))


def with_server(fn, **config):
    """Boot a fresh service + client, run ``await fn(service, client)``."""

    async def run():
        service = KronService(ServiceConfig(port=0, **config))
        await service.start()
        client = HTTPClient("127.0.0.1", service.bound_port)
        await client.connect()
        try:
            return await fn(service, client)
        finally:
            await client.aclose()
            await service.aclose()

    return asyncio.run(run())


async def register(client, a_el, b_el):
    status, doc = await client.request(
        "POST",
        "/v1/tenants/t/graphs",
        {"a": payload_of(a_el), "b": payload_of(b_el)},
    )
    assert status == 200, doc
    return doc


# ---- batched query equivalence ---------------------------------------- #
class TestQueryEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        a=edge_lists(),
        b=edge_lists(),
        raw_pairs=st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
            max_size=30,
        ),
    )
    def test_edges_bit_identical(self, a, b, raw_pairs):
        direct = KroneckerGraph(a, b)
        n = direct.n
        pairs = [[p % n, q % n] for p, q in raw_pairs]

        async def go(service, client):
            doc = await register(client, a, b)
            status, res = await client.request(
                "POST",
                f"/v1/tenants/t/graphs/{doc['graph']}/edges",
                {"pairs": pairs},
            )
            assert status == 200
            if pairs:
                arr = np.asarray(pairs, dtype=np.int64)
                expected = direct.has_edges(arr[:, 0], arr[:, 1]).tolist()
            else:
                expected = []
            assert res["exists"] == expected

        with_server(go)

    @settings(max_examples=20, deadline=None)
    @given(a=edge_lists(), b=edge_lists())
    def test_degrees_and_neighbors_bit_identical(self, a, b):
        direct = KroneckerGraph(a, b)
        vertices = list(range(direct.n))

        async def go(service, client):
            doc = await register(client, a, b)
            base = f"/v1/tenants/t/graphs/{doc['graph']}"
            _, res = await client.request(
                "POST", f"{base}/degrees", {"vertices": vertices}
            )
            assert res["degrees"] == direct.degree(
                np.asarray(vertices, dtype=np.int64)
            ).tolist()
            _, res = await client.request(
                "POST", f"{base}/neighbors", {"vertices": vertices}
            )
            for item in res["neighborhoods"]:
                assert item["neighbors"] == direct.neighbors(
                    item["p"]
                ).tolist()
                assert not item["truncated"]

        with_server(go)


# ---- analytics equivalence under eviction ----------------------------- #
class TestAnalyticsUnderEviction:
    @settings(max_examples=15, deadline=None)
    @given(a=edge_lists(), b=edge_lists(), rounds=st.integers(2, 4))
    def test_values_survive_cache_size_one(self, a, b, rounds):
        """With a one-entry cache every property evicts the previous one;
        answers must stay equal to direct computation regardless."""
        direct = KroneckerGraph(a, b)

        async def go(service, client):
            doc = await register(client, a, b)
            base = f"/v1/tenants/t/graphs/{doc['graph']}/analytics"
            for _ in range(rounds):
                for prop in EVICTABLE_PROPERTIES:
                    status, res = await client.request(
                        "POST", f"{base}/{prop}", {}
                    )
                    assert status == 200
                    expected = canonical(compute_property(prop, direct, {}))
                    assert res["value"] == expected
            # Rotating 3 properties through 1 slot: every request after
            # the first round still missed (the entry was evicted).
            assert service.cache.evictions > 0
            assert len(service.cache) == 1

        with_server(go, cache_size=1)
