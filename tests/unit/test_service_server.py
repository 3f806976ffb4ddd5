"""In-process end-to-end tests of :class:`repro.service.server.KronService`.

Each test boots a real server on a loopback ephemeral port, talks to it
through the loadgen's :class:`HTTPClient` (the same client CI uses), and
checks responses against direct :class:`~repro.kronecker.lazy.KroneckerGraph`
calls.  No pytest-asyncio: tests are sync functions running one
``asyncio.run`` each.
"""

import asyncio
import dataclasses
import json
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from repro.graph import EdgeList, clique, cycle, erdos_renyi, star
from repro.kronecker.lazy import KroneckerGraph
from repro.service.analytics import compute_property, property_names
from repro.service.loadgen import (
    DEFAULT_FACTOR_A,
    DEFAULT_FACTOR_B,
    HTTPClient,
    LoadGenConfig,
    run_loadgen,
)
from repro.service.protocol import MAX_REPLY_IDS, HTTPRequest, id_batch
from repro.service.server import MAX_BATCH, KronService, ServiceConfig


def serve(fn, **config):
    """Start a KronService, run ``await fn(service, client)``, tear down."""

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


async def register_default_graph(client, tenant="t"):
    status, doc = await client.request(
        "POST",
        f"/v1/tenants/{tenant}/graphs",
        {"a": DEFAULT_FACTOR_A, "b": DEFAULT_FACTOR_B},
    )
    assert status == 200, doc
    return doc


def default_product():
    from repro.service.registry import ServiceRegistry

    reg = ServiceRegistry()
    a = reg.factor_from_payload(DEFAULT_FACTOR_A)
    b = reg.factor_from_payload(DEFAULT_FACTOR_B)
    return KroneckerGraph(a, b)


class TestBasics:
    def test_healthz(self):
        async def go(service, client):
            status, doc = await client.request("GET", "/healthz")
            assert status == 200
            assert doc == {"ok": True, "graphs": 0}

        serve(go)

    def test_properties_listing(self):
        async def go(service, client):
            status, doc = await client.request("GET", "/v1/properties")
            assert status == 200
            assert "triangles" in doc["properties"]
            assert doc["properties"] == sorted(doc["properties"])

        serve(go)

    def test_unknown_route_is_404(self):
        async def go(service, client):
            status, doc = await client.request("GET", "/nope")
            assert status == 404
            assert doc["error"] == "not_found"

        serve(go)

    def test_bad_json_body_is_400(self):
        async def go(service, client):
            await register_default_graph(client)
            # HTTPClient always sends valid JSON; write a raw bad body.
            raw = (
                b"POST /v1/tenants/t/graphs HTTP/1.1\r\n"
                b"Content-Length: 5\r\n\r\n{nope"
            )
            client._writer.write(raw)
            await client._writer.drain()
            status, doc = await client._read_response()
            assert status == 400
            assert doc["error"] == "bad_request"

        serve(go)

    @pytest.mark.parametrize(
        "route",
        [
            "factors",
            "graphs",
            "graphs/{g}/edges",
            "graphs/{g}/degrees",
            "graphs/{g}/neighbors",
            "graphs/{g}/analytics/triangles",
            "skg",
            "skg/{s}/expected/edge_count",
        ],
    )
    def test_non_object_json_body_is_400(self, route):
        # Every POST route that reads a body (shutdown reads none) takes
        # a JSON object; any other valid JSON value is refused up front.
        async def go(service, client):
            graph = (await register_default_graph(client))["graph"]
            _, skg = await client.request(
                "POST", "/v1/tenants/t/skg", {"seed_matrix": "polblogs"}
            )
            path = "/v1/tenants/t/" + route.format(g=graph, s=skg["skg"])
            for body in ([1], 7, "x", [], 1.5, True):
                status, doc = await client.request("POST", path, body)
                assert (status, doc["error"]) == (400, "bad_request"), body
                assert "JSON object" in doc["message"]
            status, _ = await client.request("GET", "/healthz")
            assert status == 200

        serve(go)


class TestRegistration:
    def test_register_factor_returns_digest(self):
        async def go(service, client):
            status, doc = await client.request(
                "POST", "/v1/tenants/t/factors", DEFAULT_FACTOR_A
            )
            assert status == 200
            assert len(doc["digest"]) == 16
            assert doc["n"] == 4

        serve(go)

    def test_register_graph_by_digests(self):
        async def go(service, client):
            _, fa = await client.request(
                "POST", "/v1/tenants/t/factors", DEFAULT_FACTOR_A
            )
            _, fb = await client.request(
                "POST", "/v1/tenants/t/factors", DEFAULT_FACTOR_B
            )
            status, doc = await client.request(
                "POST",
                "/v1/tenants/t/graphs",
                {"factor_a": fa["digest"], "factor_b": fb["digest"]},
            )
            assert status == 200
            assert doc["n"] == 20
            assert doc["graph"] == f"{fa['digest']}x{fb['digest']}"

        serve(go)

    def test_register_graph_inline_and_list(self):
        async def go(service, client):
            doc = await register_default_graph(client)
            status, listing = await client.request(
                "GET", "/v1/tenants/t/graphs"
            )
            assert status == 200
            assert [g["graph"] for g in listing["graphs"]] == [doc["graph"]]
            status, summary = await client.request(
                "GET", f"/v1/tenants/t/graphs/{doc['graph']}/summary"
            )
            assert status == 200
            assert summary == doc

        serve(go)

    def test_unknown_tenant_is_404(self):
        async def go(service, client):
            doc = await register_default_graph(client)
            status, err = await client.request(
                "POST",
                f"/v1/tenants/other/graphs/{doc['graph']}/edges",
                {"pairs": [[0, 0]]},
            )
            assert status == 404
            assert err["error"] == "tenant_not_found"

        serve(go)

    def test_unknown_graph_is_404(self):
        async def go(service, client):
            await register_default_graph(client)
            status, err = await client.request(
                "GET", "/v1/tenants/t/graphs/0000x0000/summary"
            )
            assert status == 404
            assert err["error"] == "graph_not_found"

        serve(go)

    @pytest.mark.parametrize(
        "edges",
        # The first used to register two edges; the next two were 500s.
        [[0, 1, 2, 3], [[0, 1, 2]], ["x"], [[0.5, 1]], [[0, True]], "nope"],
    )
    def test_bad_factor_edges_are_400(self, edges):
        async def go(service, client):
            status, err = await client.request(
                "POST", "/v1/tenants/t/factors", {"edges": edges}
            )
            assert (status, err["error"]) == (400, "bad_request")

        serve(go)

    def test_incomplete_registration_is_400(self):
        async def go(service, client):
            status, err = await client.request(
                "POST", "/v1/tenants/t/graphs", {"a": DEFAULT_FACTOR_A}
            )
            assert status == 400
            status, err = await client.request(
                "POST", "/v1/tenants/t/graphs", {"factor_a": "00"}
            )
            assert status == 400

        serve(go)


class TestQueries:
    def test_edges_match_direct_kronecker(self):
        direct = default_product()
        rng = np.random.default_rng(3)
        pairs = rng.integers(0, direct.n, size=(200, 2))

        async def go(service, client):
            doc = await register_default_graph(client)
            status, res = await client.request(
                "POST",
                f"/v1/tenants/t/graphs/{doc['graph']}/edges",
                {"pairs": pairs.tolist()},
            )
            assert status == 200
            expected = direct.has_edges(pairs[:, 0], pairs[:, 1])
            assert res["exists"] == expected.tolist()

        serve(go)

    def test_degrees_match_direct_kronecker(self):
        direct = default_product()
        vertices = list(range(direct.n))

        async def go(service, client):
            doc = await register_default_graph(client)
            status, res = await client.request(
                "POST",
                f"/v1/tenants/t/graphs/{doc['graph']}/degrees",
                {"vertices": vertices},
            )
            assert status == 200
            expected = direct.degree(np.asarray(vertices))
            assert res["degrees"] == expected.tolist()

        serve(go)

    def test_neighbors_match_direct_with_truncation(self):
        direct = default_product()

        async def go(service, client):
            doc = await register_default_graph(client)
            status, res = await client.request(
                "POST",
                f"/v1/tenants/t/graphs/{doc['graph']}/neighbors",
                {"vertices": [0, 7, 19], "limit": 3},
            )
            assert status == 200
            for item in res["neighborhoods"]:
                full = direct.neighbors(item["p"])
                assert item["degree_total"] == len(full)
                assert item["truncated"] == (len(full) > 3)
                assert item["neighbors"] == full[:3].tolist()

        serve(go)

    def test_empty_batches(self):
        async def go(service, client):
            doc = await register_default_graph(client)
            base = f"/v1/tenants/t/graphs/{doc['graph']}"
            status, res = await client.request(
                "POST", f"{base}/edges", {"pairs": []}
            )
            assert (status, res["exists"]) == (200, [])
            status, res = await client.request(
                "POST", f"{base}/degrees", {"vertices": []}
            )
            assert (status, res["degrees"]) == (200, [])

        serve(go)

    @pytest.mark.parametrize(
        "body",
        [
            {"pairs": "nope"},
            {"pairs": [[0]]},
            {"pairs": [[0, 1, 2]]},
            {"pairs": [[0, 99]]},  # out of range (n = 20)
            {"pairs": [[-1, 0]]},
            {"pairs": [["a", "b"]]},
            {"vertices": [0]},  # wrong field name
            # Used to be answered as (1, 2), (1, 2), (1, 0) and (1, 2):
            {"pairs": [[1.7, 2.2]]},
            {"pairs": [[1.0, 2.0]]},
            {"pairs": [[True, 0]]},
            {"pairs": [["1", "2"]]},
            {"pairs": [0, 1, 2, 3]},
            {"pairs": [[0, 1], [2]]},
            {"pairs": [[0, [1]]]},
            {"pairs": [[2**63, 0]]},
        ],
    )
    def test_bad_edge_batches_are_400(self, body):
        async def go(service, client):
            doc = await register_default_graph(client)
            status, err = await client.request(
                "POST", f"/v1/tenants/t/graphs/{doc['graph']}/edges", body
            )
            assert status == 400
            assert err["error"] == "bad_request"

        serve(go)

    @pytest.mark.parametrize("leaf, field", [("edges", "pairs"), ("degrees", "vertices")])
    @pytest.mark.parametrize("bad", [20, 99, -1])
    def test_out_of_range_400_is_pinned_on_both_read_paths(self, leaf, field, bad):
        # A short body is decoded by json.loads + int_ids, a long canonical
        # one read by id_batch: the refusal is the same bytes either way.
        want = (
            b"HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n"
            b"Content-Length: 64\r\nConnection: keep-alive\r\n\r\n"
            b'{"error": "bad_request", "message": "vertex ids outside 0..19"}\n'
        )

        async def go(service, client):
            graph = (await register_default_graph(client))["graph"]
            path = f"/v1/tenants/t/graphs/{graph}/{leaf}"
            for count in (1, 1200):
                ids = [[1, 2]] * count if field == "pairs" else [3] * count
                ids.append([0, bad] if field == "pairs" else bad)
                body = json.dumps({field: ids}, separators=(",", ":")).encode()
                assert (id_batch(body, field, 2 if field == "pairs" else 1)
                        is None) == (count == 1 or bad < 0)
                reply = await service._dispatch(HTTPRequest("POST", path, {}, body))
                assert reply == want

        serve(go)

    @pytest.mark.parametrize(
        "vertices", ["nope", [0.0], [1.5], ["x"], [[0]], [None], [False], [-1], [99]]
    )
    def test_bad_vertex_batches_are_400(self, vertices):
        async def go(service, client):
            doc = await register_default_graph(client)
            status, err = await client.request(
                "POST",
                f"/v1/tenants/t/graphs/{doc['graph']}/degrees",
                {"vertices": vertices},
            )
            assert (status, err["error"]) == (400, "bad_request")

        serve(go)

    def test_oversized_batch_is_400(self):
        async def go(service, client):
            doc = await register_default_graph(client)
            status, err = await client.request(
                "POST",
                f"/v1/tenants/t/graphs/{doc['graph']}/degrees",
                {"vertices": [0] * (MAX_BATCH + 1)},
            )
            assert status == 400
            assert str(MAX_BATCH) in err["message"]

        serve(go)

    def test_bad_neighbor_limit_is_400(self):
        async def go(service, client):
            doc = await register_default_graph(client)
            status, _ = await client.request(
                "POST",
                f"/v1/tenants/t/graphs/{doc['graph']}/neighbors",
                {"vertices": [0], "limit": -1},
            )
            assert status == 400

        serve(go)


def dispatch(service, a, b, leaf, doc):
    """``(status line, body)`` of one in-process request to ``a (x) b``;
    ``doc`` goes as its JSON, or as it is when it is already bytes."""
    reg = service.registry
    handle = reg.register_graph("t", reg.register_factor(a), reg.register_factor(b))
    request = HTTPRequest(
        "POST", f"/v1/tenants/t/graphs/{handle.key}/{leaf}", {},
        doc if isinstance(doc, bytes) else json.dumps(doc).encode(),
    )
    head, _, body = asyncio.run(service._dispatch(request)).partition(b"\r\n\r\n")
    return head.split(b"\r\n")[0], body


def dict_reply(graph, vertices, limit):
    """The reference reply: one dict per vertex through ``json.dumps``."""
    out = []
    for p in vertices:
        nbrs = graph.neighbors(p)
        truncated = limit is not None and len(nbrs) > limit
        out.append({
            "p": p,
            "neighbors": (nbrs[:limit] if truncated else nbrs).tolist(),
            "degree_total": len(nbrs),
            "truncated": truncated,
        })
    return (json.dumps({"neighborhoods": out}, sort_keys=True) + "\n").encode()


class TestIdBatchSpellings:
    """Id batches are read two ways: canonical bodies by the array fast
    path (``protocol.id_batch``), everything else by ``json.loads`` +
    ``int_ids``.  Neither may answer what the other would not."""

    A, B = erdos_renyi(60, 0.2, seed=1), erdos_renyi(50, 0.3, seed=2)
    PAIRS = np.random.default_rng(7).integers(60 * 50, size=(4096, 2))

    @pytest.mark.parametrize(
        "spelling", [dict(separators=(",", ":")), {}, dict(indent=2)],
        ids=["compact", "spaced", "indent=2"],
    )
    def test_one_batch_in_any_spelling_gets_one_reply(self, spelling):
        body = json.dumps({"pairs": self.PAIRS.tolist()}, **spelling).encode()
        graph = KroneckerGraph(self.A, self.B)
        exists = graph.has_edges(self.PAIRS[:, 0], self.PAIRS[:, 1])
        want = json.dumps({"exists": exists.tolist()}, sort_keys=True) + "\n"
        assert dispatch(KronService(), self.A, self.B, "edges", body) == (
            b"HTTP/1.1 200 OK", want.encode()
        )

    @pytest.mark.parametrize(
        "prefix",
        [
            b"[[1 2,3],",                     # whitespace joining digits
            b"[[01,2],",                      # leading zero
            b"[[1234567890123456789,2],",     # 19 digits
            b"[[12345678901234567890,2],",    # past int64
            b"[[1,2],,",                      # empty element
            b"[[-1,2],",                      # negative
            b"[[1.0,2],",                     # float
            b"[[true,2],",                    # bool
            b"[[1,2,3],",                     # ragged
            b"[[1,[2]],",                     # nested
            b'[["1","2"],',                   # strings
        ],
    )
    def test_hostile_batch_gets_the_general_paths_400(self, prefix):
        # The defect near the start of a 4096-pair body, long enough for
        # the fast path to try it, gets the 400 the general path gives it
        # in a short body, which that path always decodes.
        tail = json.dumps(self.PAIRS.tolist(), separators=(",", ":"))[1:]
        service = KronService()
        long_reply, short_reply = (
            dispatch(service, self.A, self.B, "edges", b'{"pairs": ' + body)
            for body in (prefix + tail.encode() + b"}", prefix + b"[0,0]]}")
        )
        assert long_reply[0] == b"HTTP/1.1 400 Bad Request", long_reply
        assert long_reply == short_reply

    @pytest.mark.parametrize(
        "key, extra", [("pa irs", []), ("pairs", [[0, 1.5]]),
                       ("pairs", [[0, 60 * 50]])],
        ids=["misspelled-key", "float-id", "id-out-of-range"],
    )
    def test_wrong_shape_gets_one_400_in_any_spelling(self, key, extra):
        doc = {key: self.PAIRS.tolist() + extra}
        service = KronService()
        compact, pretty = (
            dispatch(service, self.A, self.B, "edges",
                     json.dumps(doc, **spelling).encode())
            for spelling in (dict(separators=(",", ":")), dict(indent=2))
        )
        assert compact[0] == b"HTTP/1.1 400 Bad Request", compact
        assert compact == pretty


class TestNeighborReplies:
    # A: vertex 3 isolated, loops at 0 and 2; B: loops everywhere but 1.
    A = EdgeList(np.array([[0, 0], [0, 1], [1, 0], [1, 2], [2, 1], [2, 2]]), 4)
    B = EdgeList(np.array([[0, 0], [0, 1], [1, 0], [2, 2], [1, 2], [2, 1]]), 3)

    @pytest.mark.parametrize("limit", [None, 0, 1, 2, 4, 100, 10**30])
    @pytest.mark.parametrize(
        "vertices",
        [[], [9], [0, 6, 0, 9, 11, 0], list(range(12)) * 2],  # 9..11: empty rows
    )
    def test_bytes_are_json_dumps_of_the_dict_form(self, vertices, limit):
        doc = {"vertices": vertices}
        if limit is not None:
            doc["limit"] = limit
        status, body = dispatch(KronService(), self.A, self.B, "neighbors", doc)
        assert status == b"HTTP/1.1 200 OK"
        assert body == dict_reply(KroneckerGraph(self.A, self.B), vertices, limit)

    @pytest.mark.parametrize("limit", [None, 0, 1, 7, 10**6])
    def test_random_batches_are_json_dumps_of_the_dict_form(self, limit):
        # Loops on A only: B's isolated vertices give empty rows, and ids
        # run past 10**4 (two 4-digit limbs).
        a = erdos_renyi(120, 0.2, seed=3).with_full_self_loops()
        b = erdos_renyi(90, 0.05, seed=4)
        graph, service = KroneckerGraph(a, b), KronService()
        rng = np.random.default_rng(11)
        for size in (1, 16, 300):
            vertices = rng.integers(graph.n, size=size).tolist()
            vertices += vertices[: size // 4]  # repeats
            doc = {"vertices": vertices}
            if limit is not None:
                doc["limit"] = limit
            status, body = dispatch(service, a, b, "neighbors", doc)
            assert status == b"HTTP/1.1 200 OK", body[:200]
            assert body == dict_reply(graph, vertices, limit), size

    def test_over_the_bound_is_refused_before_expanding(self):
        # K9 with loops squared: 81 ids a vertex, 5.3e6 > MAX_REPLY_IDS over
        # a full batch -- 42 MB of int64 ids were they expanded.
        k9 = clique(9).with_full_self_loops()
        vertices = (np.arange(MAX_BATCH) % 81).tolist()
        assert 81 * MAX_BATCH > MAX_REPLY_IDS
        service = KronService()
        tracemalloc.start()
        try:
            with mock.patch.object(
                KroneckerGraph, "neighbors", side_effect=AssertionError("expanded")
            ):
                status, body = dispatch(
                    service, k9, k9, "neighbors", {"vertices": vertices}
                )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert status == b"HTTP/1.1 400 Bad Request"
        err = json.loads(body)
        assert err["error"] == "bad_request"
        assert str(MAX_REPLY_IDS) in err["message"] and "'limit'" in err["message"]
        assert peak < 16 << 20, peak
        # The same batch under a limit is served.
        status, body = dispatch(
            service, k9, k9, "neighbors", {"vertices": vertices, "limit": 8}
        )
        assert status == b"HTTP/1.1 200 OK"
        assert body.count(b'"truncated": true') == MAX_BATCH

    def test_exactly_at_the_bound_is_served(self):
        # K8 with loops squared: 64 ids a vertex, 64 * MAX_BATCH == the bound.
        k8 = clique(8).with_full_self_loops()
        assert 64 * MAX_BATCH == MAX_REPLY_IDS
        vertices = (np.arange(MAX_BATCH) % 64).tolist()
        status, body = dispatch(
            KronService(), k8, k8, "neighbors", {"vertices": vertices}
        )
        assert status == b"HTTP/1.1 200 OK"
        hoods = json.loads(body)["neighborhoods"]
        assert len(hoods) == MAX_BATCH
        assert sum(len(h["neighbors"]) for h in hoods) == MAX_REPLY_IDS
        assert hoods[-1] == {
            "p": 63, "neighbors": list(range(64)), "degree_total": 64,
            "truncated": False,
        }

    @pytest.mark.parametrize(
        "vertices, limit, bound, status",
        [
            ([5, 5], 32, 64, b"200"),  # 64 ids, at the bound
            ([5, 5], 33, 64, b"400"),
            ([5], None, 64, b"200"),
            ([5], None, 63, b"400"),  # one id over
            ([5], 63, 63, b"200"),
        ],
    )
    def test_the_bound_counts_limited_ids(self, vertices, limit, bound, status):
        # K8 with loops squared: rows of 64 ids, cut by limit.
        k8 = clique(8).with_full_self_loops()
        doc = {"vertices": vertices, "limit": limit}
        with mock.patch("repro.service.server.MAX_REPLY_IDS", bound):
            line, _ = dispatch(KronService(), k8, k8, "neighbors", doc)
        assert line.split(b" ")[1] == status

    def test_hub_with_a_limit_expands_only_the_limit(self):
        # Hub (0, 0) of star(3000) squared: a 9e6-id row, 72 MB expanded.
        s = star(3000)
        service = KronService()
        tracemalloc.start()
        try:
            status, body = dispatch(
                service, s, s, "neighbors", {"vertices": [0], "limit": 3}
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert status == b"HTTP/1.1 200 OK"
        assert json.loads(body) == {"neighborhoods": [{
            "p": 0, "neighbors": [3001, 3002, 3003], "degree_total": 2999**2,
            "truncated": True,
        }]}
        assert peak < 8 << 20, peak


class TestAnalytics:
    def test_triangles_cached_on_second_request(self):
        async def go(service, client):
            doc = await register_default_graph(client)
            path = f"/v1/tenants/t/graphs/{doc['graph']}/analytics/triangles"
            status, first = await client.request("POST", path, {})
            assert status == 200
            assert not first["cached"]
            status, second = await client.request("POST", path, {})
            assert second["cached"]
            assert first["value"] == second["value"]
            assert first["value"]["convention"] == "no_loops"
            assert service.cache.hits == 1

        serve(go)

    def test_triangles_value_matches_groundtruth(self):
        from repro.groundtruth.triangles import (
            factor_triangle_stats,
            global_triangles_no_loops,
        )

        direct = default_product()
        tau_a = factor_triangle_stats(
            direct.factor_a.without_self_loops()
        ).global_tri
        tau_b = factor_triangle_stats(
            direct.factor_b.without_self_loops()
        ).global_tri
        expected = global_triangles_no_loops(tau_a, tau_b)

        async def go(service, client):
            doc = await register_default_graph(client)
            _, res = await client.request(
                "POST",
                f"/v1/tenants/t/graphs/{doc['graph']}/analytics/triangles",
                {"params": {"convention": "no_loops"}},
            )
            assert res["value"]["global_triangles"] == int(expected)

        serve(go)

    def test_every_answer_is_computed_once_and_served_as_computed(self):
        # Every served property, both triangle conventions: the second
        # request for each comes from the cache, and both carry the value
        # the direct graph computes.
        analytics = (
            ("summary", {}),
            ("triangles", {"convention": "no_loops"}),
            ("triangles", {"convention": "full_loops"}),
            ("degree_histogram", {}),
            ("eccentricity_histogram", {}),
            ("closeness", {"p": 0}),
            ("community", {"set_a": [0, 1], "set_b": [0, 1, 2]}),
        )
        assert {p for p, _ in analytics} == set(property_names())
        a = erdos_renyi(30, 0.3, seed=5).with_full_self_loops()
        b = erdos_renyi(25, 0.35, seed=6).with_full_self_loops()
        graph = KroneckerGraph(a, b)

        async def go(service, client):
            status, doc = await client.request("POST", "/v1/tenants/ci/graphs", {
                "a": {"edges": a.edges.tolist(), "n": a.n},
                "b": {"edges": b.edges.tolist(), "n": b.n}})
            assert status == 200, doc
            for prop, params in analytics:
                want = json.loads(json.dumps(compute_property(prop, graph, params)))
                path = f"/v1/tenants/ci/graphs/{doc['graph']}/analytics/{prop}"
                replies = [await client.request("POST", path, {"params": params})
                           for _ in range(2)]
                assert [(s, r["cached"]) for s, r in replies] == [
                    (200, False), (200, True)], prop
                assert all(r["value"] == want for _, r in replies), prop
            status, metrics = await client.request("GET", "/v1/metrics")
            assert status == 200
            return metrics["cache"]

        cache = serve(go)
        assert sorted(cache) == sorted(
            ["size", "maxsize", "hits", "misses", "evictions", "hit_rate"]), cache
        assert (cache["misses"], cache["hits"]) == (7, 7), cache

    def test_params_distinguish_cache_entries(self):
        async def go(service, client):
            doc = await register_default_graph(client)
            path = f"/v1/tenants/t/graphs/{doc['graph']}/analytics/closeness"
            _, r0 = await client.request("POST", path, {"params": {"p": 0}})
            _, r1 = await client.request("POST", path, {"params": {"p": 1}})
            assert not r0["cached"] and not r1["cached"]
            assert r0["value"]["p"] == 0 and r1["value"]["p"] == 1

        serve(go)

    def test_unknown_property_is_400(self):
        async def go(service, client):
            doc = await register_default_graph(client)
            status, err = await client.request(
                "POST",
                f"/v1/tenants/t/graphs/{doc['graph']}/analytics/pagerank",
                {},
            )
            assert status == 400
            assert "unknown property" in err["message"]

        serve(go)

    def test_missing_assumption_is_422(self):
        async def go(service, client):
            # No self loops: eccentricity/closeness hypotheses fail.
            status, doc = await client.request(
                "POST",
                "/v1/tenants/t/graphs",
                {
                    "a": {"edges": [[0, 1]], "n": 2, "symmetrize": True},
                    "b": {"edges": [[0, 1]], "n": 2, "symmetrize": True},
                },
            )
            assert status == 200
            path = (
                f"/v1/tenants/t/graphs/{doc['graph']}"
                f"/analytics/eccentricity_histogram"
            )
            status, err = await client.request("POST", path, {})
            assert status == 422
            assert err["error"] == "assumption_violated"

        serve(go)

    @pytest.mark.parametrize("set_a", [["x"], [0.5], [[0]], [True], [], [99]])
    def test_bad_community_sets_are_400(self, set_a):
        async def go(service, client):
            doc = await register_default_graph(client)
            status, err = await client.request(
                "POST",
                f"/v1/tenants/t/graphs/{doc['graph']}/analytics/community",
                {"params": {"set_a": set_a, "set_b": [0, 1]}},
            )
            assert (status, err["error"]) == (400, "bad_request")

        serve(go)

    def test_bad_params_is_400(self):
        async def go(service, client):
            doc = await register_default_graph(client)
            status, _ = await client.request(
                "POST",
                f"/v1/tenants/t/graphs/{doc['graph']}/analytics/triangles",
                {"params": "nope"},
            )
            assert status == 400

        serve(go)


class TestObservability:
    def test_metrics_endpoint_shape(self):
        async def go(service, client):
            doc = await register_default_graph(client)
            await client.request(
                "POST",
                f"/v1/tenants/t/graphs/{doc['graph']}/edges",
                {"pairs": [[0, 0]]},
            )
            status, m = await client.request("GET", "/v1/metrics")
            assert status == 200
            counters = m["metrics"]["counters"]
            assert counters["service.requests"] >= 2
            assert counters["service.edge_queries"] == 1
            assert counters.get("service.errors", 0) == 0
            assert m["cache"]["maxsize"] == service.cache.maxsize
            assert m["registry"]["graphs"] == 1
            assert m["registry"]["tenants"] == ["t"]

        serve(go)

    def test_two_servers_keep_their_own_cache_and_counters(self):
        # Two servers in one process share no state: each counts only its
        # own requests, and its cache honours its own size.
        async def run():
            small = KronService(ServiceConfig(port=0, cache_size=8))
            other = KronService(ServiceConfig(port=0))
            clients = []
            for service in (small, other):
                await service.start()
                client = HTTPClient("127.0.0.1", service.bound_port)
                await client.connect()
                clients.append(client)
            try:
                graph = (await register_default_graph(clients[0]))["graph"]
                for prop in ("triangles", "degree_histogram"):
                    for _ in range(2):
                        status, _ = await clients[0].request(
                            "POST",
                            f"/v1/tenants/t/graphs/{graph}/analytics/{prop}",
                            {},
                        )
                        assert status == 200
                return [
                    (await c.request("GET", "/v1/metrics"))[1]
                    for c in clients
                ]
            finally:
                for client in clients:
                    await client.aclose()
                await small.aclose()
                await other.aclose()

        m_small, m_other = asyncio.run(run())
        cache = m_small["cache"]
        assert (cache["maxsize"], cache["misses"], cache["hits"]) == (8, 2, 2)
        counters = m_small["metrics"]["counters"]
        assert counters["service.analytics_queries"] == 4
        assert m_other["cache"] == {
            "size": 0,
            "maxsize": 512,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "hit_rate": 0.0,
        }
        assert m_other["metrics"]["counters"] == {}
        assert m_other["registry"]["graphs"] == 0
        assert "memo" not in m_small and "memo" not in m_other

    def test_launches_on_the_server_thread_stay_out_of_its_metrics(
        self, monkeypatch
    ):
        # A failed launch and a degraded one, run on the thread the server
        # lives on, belong to their own runs: neither reaches /v1/metrics.
        from repro.distributed import spmd_run
        from repro.errors import CommunicatorError, DegradationWarning
        from tests.unit.test_supervisor import (
            _exchange_then_return,
            _fill_tmpfs_after,
        )

        monkeypatch.setenv("REPRO_RECV_TIMEOUT", "2")

        async def go(service, client):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradationWarning)
                try:
                    spmd_run(_exchange_then_return, 2, backend="socket",
                             rendezvous="127.0.0.1:1")
                except CommunicatorError:
                    pass
            _fill_tmpfs_after(monkeypatch, 1000)
            out = spmd_run(_exchange_then_return, 2, backend="process")
            monkeypatch.undo()
            assert [degradations for _, degradations in out] == [1, 1]
            status, m = await client.request("GET", "/v1/metrics")
            assert status == 200
            assert "degradations" not in m["metrics"]["counters"]
            assert not [
                e for e in service.telemetry.tracer.events()
                if e.name == "degradation"
            ]

        serve(go)

    def test_default_loadgen_run_is_answered_from_the_cache(self):
        """loadgen's default workload gets no error response, and each of
        the 7 analytics answers it rotates is computed at most once: the
        cache is the only tier."""

        async def go(service, client):
            return await run_loadgen(LoadGenConfig(port=service.bound_port))

        report = serve(go)
        assert report["errors"] == 0, f"{report['errors']} error responses"
        cache = report["server"]["cache"]
        assert cache["hit_rate"] > 0.90, cache
        counters = report["server"]["metrics"]["counters"]
        assert counters.get("service.errors", 0) == 0, counters
        assert cache["misses"] <= 7, cache
        assert cache["evictions"] == 0, cache
        assert "memo" not in report["server"], sorted(report["server"])

    def test_requests_produce_spans(self):
        async def go(service, client):
            doc = await register_default_graph(client)
            await client.request(
                "POST",
                f"/v1/tenants/t/graphs/{doc['graph']}/analytics/summary",
                {},
            )
            return service

        service = serve(go)
        events = service.trace_session().ranks[0].events
        names = {e.name for e in events}
        assert "service.request" in names
        assert "service.analytics" in names

    def test_error_requests_still_counted(self):
        async def go(service, client):
            await client.request("GET", "/nope")
            _, m = await client.request("GET", "/v1/metrics")
            counters = m["metrics"]["counters"]
            assert counters["service.errors"] == 1
            assert counters["service.status.404"] == 1

        serve(go)


class TestConfig:
    def test_fields_are_the_values_callers_set(self):
        # The body bound is protocol.MAX_BODY_BYTES and the telemetry
        # config the default; neither is a setting of the server.
        names = {f.name for f in dataclasses.fields(ServiceConfig)}
        assert names == {"host", "port", "cache_size", "allow_shutdown"}


class TestShutdown:
    def test_remote_shutdown_stops_server(self):
        async def go():
            service = KronService(ServiceConfig(port=0))
            await service.start()
            serve_task = asyncio.create_task(service.serve_until_shutdown())
            client = await HTTPClient("127.0.0.1", service.bound_port).connect()
            status, doc = await client.request("POST", "/v1/admin/shutdown")
            assert (status, doc["shutting_down"]) == (200, True)
            await client.aclose()
            await asyncio.wait_for(serve_task, timeout=5)

        asyncio.run(go())

    def test_shutdown_disabled_is_400(self):
        async def go(service, client):
            status, err = await client.request("POST", "/v1/admin/shutdown")
            assert status == 400
            assert not service._shutdown.is_set()

        serve(go, allow_shutdown=False)

    def test_bound_port_requires_listening(self):
        from repro.errors import ServiceError

        service = KronService(ServiceConfig(port=0))
        with pytest.raises(ServiceError):
            service.bound_port


class TestKeepAlive:
    def test_many_requests_one_connection(self):
        async def go(service, client):
            doc = await register_default_graph(client)
            path = f"/v1/tenants/t/graphs/{doc['graph']}/edges"
            for _ in range(20):
                status, _ = await client.request(
                    "POST", path, {"pairs": [[0, 0]]}
                )
                assert status == 200

        serve(go)

    def test_analytics_response_is_valid_json(self):
        """The spliced head+payload composition must parse cleanly."""

        async def go(service, client):
            doc = await register_default_graph(client)
            _, res = await client.request(
                "POST",
                f"/v1/tenants/t/graphs/{doc['graph']}/analytics/degree_histogram",
                {},
            )
            json.dumps(res)  # fully JSON-representable
            assert res["graph"] == doc["graph"]
            assert res["property"] == "degree_histogram"

        serve(go)
