"""Property tests: the service answers bit-identical to direct lazy calls.

Satellite guarantee of the serving layer: whatever the HTTP surface
returns for edge / degree / neighborhood / analytics queries must equal
what a direct :class:`repro.kronecker.lazy.KroneckerGraph` over the same
factors computes -- under cache eviction (``cache_size=1``) too.
"""

import asyncio
import json
import random
import tracemalloc
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import EdgeList
from repro.kronecker.lazy import KroneckerGraph
from repro.service import protocol
from repro.service.analytics import compute_property
from repro.service.loadgen import HTTPClient
from repro.service.protocol import HTTPRequest, id_batch, int_ids
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
    @given(
        a=edge_lists(),
        b=edge_lists(),
        picks=st.lists(st.integers(0, 10**6), max_size=12),
        limit=st.one_of(st.none(), st.integers(0, 6), st.just(10**30)),
    )
    def test_degrees_and_neighbors_bit_identical(self, a, b, picks, limit):
        """Reply bytes equal ``json.dumps(sort_keys=True) + "\\n"`` of the
        direct answer's dict form: all vertices, then random ones (repeats
        included) under a drawn ``limit``."""
        direct = KroneckerGraph(a, b)
        vertices = list(range(direct.n))
        picked = [p % direct.n for p in picks]

        def want(doc):
            return (json.dumps(doc, sort_keys=True) + "\n").encode()

        def hoods(vs, limit):
            out = []
            for p in vs:
                nbrs = direct.neighbors(p)
                cut = limit is not None and len(nbrs) > limit
                out.append({"p": p, "neighbors": nbrs[:limit].tolist() if cut
                            else nbrs.tolist(), "degree_total": len(nbrs),
                            "truncated": cut})
            return {"neighborhoods": out}

        async def go(service, client):
            doc = await register(client, a, b)
            base = f"/v1/tenants/t/graphs/{doc['graph']}"
            for leaf, body, expected in (
                ("degrees", {"vertices": vertices}, {"degrees": direct.degree(
                    np.asarray(vertices, dtype=np.int64)).tolist()}),
                ("neighbors", {"vertices": vertices}, hoods(vertices, None)),
                ("neighbors", {"vertices": picked, "limit": limit},
                 hoods(picked, limit)),
            ):
                reply = await service._dispatch(HTTPRequest(
                    "POST", f"{base}/{leaf}", {}, json.dumps(body).encode()
                ))
                head, _, raw = reply.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 200 OK\r\n"), leaf
                assert raw == want(expected), leaf

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


# ---- the id-batch fast path against the general decoder --------------- #
#
# ``id_batch`` reads canonical batch bodies straight from the bytes and
# declines everything else to ``json.loads`` + ``int_ids``.  The property:
# whatever the body, it either equals the general path or declines, and the
# served reply is byte-identical to the one the general path alone serves.
# Bodies are padded with trailing whitespace past ``_ID_BATCH_MIN_BYTES``
# (JSON whitespace after the object changes nothing), so short documents
# exercise the fast path too.

_ID_INTS = st.one_of(
    st.integers(0, 40),
    st.integers(-3, 3),
    st.integers(2**63 - 3, 2**63 + 3),
    st.integers(-(2**63) - 3, -(2**63) + 3),
    st.integers(10**18 - 3, 10**18 + 3),
    st.integers(10**17 - 3, 10**17 + 3),
)
_LEAVES = st.one_of(
    _ID_INTS, _ID_INTS, _ID_INTS,
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(), st.text(max_size=3), st.none(),
)
_ROWS = st.one_of(
    st.lists(_ID_INTS, min_size=2, max_size=2),  # well-formed pairs
    st.lists(_LEAVES, max_size=3),  # ragged or mistyped rows
    st.lists(st.lists(_ID_INTS, max_size=2), max_size=2),  # nested
    _LEAVES,
)
_ITEMS = st.lists(st.one_of(_ROWS, _ID_INTS), max_size=6)


def _encode(value, rng: random.Random | None, style: str) -> str:
    """JSON text of ``value``; objects are lists of (key, value) pairs so
    keys may repeat.  ``rng`` draws whitespace between tokens."""
    def ws() -> str:
        if rng is None:
            return ""
        return "".join(rng.choice(" \t\n\r") for _ in range(rng.choice((0, 0, 1, 2))))

    if isinstance(value, tuple) and value and value[0] == "object":
        parts = [
            ws() + json.dumps(k) + ws() + ":" + ws() + _encode(v, rng, style) + ws()
            for k, v in value[1]
        ]
        return "{" + ",".join(parts) + "}" if parts else "{" + ws() + "}"
    if isinstance(value, list):
        sep = ", " if style == "spaced" else ","
        return "[" + sep.join(ws() + _encode(v, rng, style) + ws() for v in value) + "]"
    return json.dumps(value)


@st.composite
def batch_bodies(draw):
    """``(body, field, width)``: a batch document in one of four spellings,
    perhaps with one byte flipped, inserted or deleted, or two swapped."""
    field, width = draw(st.sampled_from([("pairs", 2), ("vertices", 1)]))
    items = draw(_ITEMS)
    pairs = [(field, items)]
    if draw(st.integers(0, 4)) == 0:
        extra = draw(st.sampled_from([field, "limit", "pa irs", "vertices", "pairs"]))
        pairs.insert(draw(st.integers(0, 1)), (extra, draw(_ITEMS)))
    doc = ("object", pairs)
    style = draw(st.sampled_from(["compact", "spaced", "indent", "random"]))
    if style == "indent" and len(pairs) == 1:
        text = json.dumps({field: items}, indent=2)
    else:
        rng = random.Random(draw(st.integers(0, 2**32))) if style == "random" else None
        text = _encode(doc, rng, style)
    body = bytearray(text.encode())
    edit = draw(st.sampled_from(["none", "none", "flip", "insert", "delete", "swap"]))
    if edit != "none" and len(body) > 1:
        at = draw(st.integers(0, len(body) - 2))
        byte = draw(st.sampled_from(b'0123456789[]{},:" \t\n-+.eE\x00\xff'))
        if edit == "flip":
            body[at] = byte
        elif edit == "insert":
            body.insert(at, byte)
        elif edit == "delete":
            del body[at]
        else:  # moves a digit across a separator: ``2]`` -> ``]2``
            body[at], body[at + 1] = body[at + 1], body[at]
    return bytes(body) + b" " * protocol._ID_BATCH_MIN_BYTES, field, width


def _general(body: bytes, field: str, width: int):
    """``json.loads`` + ``int_ids``: the array, or None where it refuses."""
    try:
        doc = json.loads(body)
        return int_ids(doc[field], field, width)
    except Exception:  # noqa: BLE001 - any refusal counts as one
        return None


@pytest.fixture(scope="module")
def served():
    """``served(body, leaf, general_only=False)``: the full reply of one
    in-process dispatch to a registered 20-vertex product (ids 0..19 are
    in range); ``general_only`` takes ``id_batch`` out of the server."""
    service = KronService(ServiceConfig())
    a = EdgeList(np.array([[0, 1], [1, 0], [1, 2], [2, 1], [3, 3]]), 4)
    b = EdgeList(np.array([[0, 0], [0, 1], [1, 0], [2, 4], [4, 2]]), 5)
    handle = service.registry.register_graph(
        "t", service.registry.register_factor(a),
        service.registry.register_factor(b),
    )
    base = f"/v1/tenants/t/graphs/{handle.key}"

    def serve_one(body: bytes, leaf: str, general_only: bool = False) -> bytes:
        request = HTTPRequest("POST", f"{base}/{leaf}", {}, body)
        general = mock.patch("repro.service.server.id_batch", return_value=None)
        with general if general_only else nullcontext():
            return asyncio.run(service._dispatch(request))

    return serve_one


_LEAF = {"pairs": "edges", "vertices": "degrees"}


class TestIdBatchDifferential:
    @settings(max_examples=400, deadline=None)
    @given(case=batch_bodies())
    def test_fast_path_equals_general_or_declines(self, served, case):
        body, field, width = case
        fast = id_batch(body, field, width)
        if fast is not None:
            general = _general(body, field, width)
            assert general is not None, body
            assert fast.dtype == general.dtype and fast.shape == general.shape
            assert np.array_equal(fast, general)
        # Whatever the fast path did, the reply is the general path's.
        leaf = _LEAF[field]
        assert served(body, leaf) == served(body, leaf, general_only=True)

    @pytest.mark.parametrize(
        "body",
        [
            b'{"pairs": [[1 2,3]]}',  # whitespace must not join digits into 12
            b'{"pairs": [[01,2]]}',
            b'{"pairs": [[1234567890123456789,2]]}',
            b'{"pairs": [[1,2],]}',
            b'{"pa irs": [[1,2]]}',
            b'{"pairs": [[,1 2]]}',
            b'{"pairs": [[1,]2,[3,4]]}',  # a digit run outside its slot
            b'{"pairs": [[1,2],3[,4]]}',
            b'{"pairs": [[1,2]], "pairs": [[3,4]]}',
            b'{"pairs": [[1,2]], "limit": 3}',
            b'{"pairs": [[-1,2]]}',
            b'{"pairs": [[1.0,2]]}',
            b'{"pairs": [[1,2][3,4]]}',
            b'{"pairs": [[1,2]x]}',
            b'{"pairs": 5[[1,2]]}',
            b'{"pairs": [[1,2]]5}',
            b'{"pairs": [[1,\x0b2]]}',
            b'{"pairs": [[1,2]]}}',
            b'\xef\xbb\xbf{"pairs": [[1,2]]}',
            b'{"\\u0070airs": [[1,2]]}',
        ],
    )
    def test_named_bodies_decline(self, served, body):
        body += b" " * protocol._ID_BATCH_MIN_BYTES
        assert id_batch(body, "pairs", 2) is None
        assert served(body, "edges") == served(body, "edges", general_only=True)

    def test_canonical_spellings_read_the_same_ids(self):
        ids = [[0, 19], [10**17, 999999999999999999], [7, 0]]
        pad = b" " * protocol._ID_BATCH_MIN_BYTES
        for text in (
            json.dumps({"pairs": ids}, separators=(",", ":")),
            json.dumps({"pairs": ids}),
            json.dumps({"pairs": ids}, indent=2),
            ' \n{ "pairs" :\t[ [ 0 ,19 ] , [100000000000000000,999999999999999999],[7,0]]\r}',
        ):
            got = id_batch(text.encode() + pad, "pairs", 2)
            assert got is not None and got.tolist() == ids, text

    @pytest.mark.parametrize(
        "element, width",
        [
            (b"[12345,67890]", 2),  # canonical, ~18x the batch limit
            (b"1", 1),  # a digit run at every other byte
            (b"[[[[", 2),  # nothing but separators
            (b"9" * 1000, 1),  # runs far past 18 digits
        ],
    )
    def test_hostile_body_peaks_at_a_few_body_sizes(self, element, width):
        # 16 MiB: declined (the general path refuses it) with memory a small
        # multiple of the body, whatever the body repeats.
        field = "pairs" if width == 2 else "vertices"
        count = (16 << 20) // (len(element) + 1)
        body = b'{"%s": [%s]}' % (field.encode(), b",".join([element] * count))
        tracemalloc.start()
        try:
            ids = id_batch(body, field, width)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ids is None
        assert peak < 4 * len(body), peak / len(body)
