"""Unit tests for the service HTTP protocol layer and error mapping."""

import asyncio
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    AssumptionError,
    GraphNotFoundError,
    ReproError,
    RequestError,
    ServiceError,
    TenantNotFoundError,
)
from repro.service.protocol import (
    HTTPRequest,
    array_body,
    error_payload,
    int_ids,
    int_text,
    neighborhoods_body,
    read_request,
    render_response,
    status_of,
)


def parse(raw: bytes, max_body: int = 1 << 20):
    """Feed raw bytes through read_request on a throwaway loop."""

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, max_body)

    return asyncio.run(run())


def req(method="POST", path="/x", body=b"", extra=""):
    return (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n{extra}\r\n"
    ).encode() + body


class TestReadRequest:
    def test_basic_post_with_body(self):
        body = json.dumps({"pairs": [[0, 1]]}).encode()
        r = parse(req(body=body))
        assert r.method == "POST"
        assert r.path == "/x"
        assert r.body == body
        assert r.json() == {"pairs": [[0, 1]]}

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_keep_alive_default_and_close(self):
        assert parse(req()).keep_alive
        assert not parse(req(extra="Connection: close\r\n")).keep_alive

    def test_headers_lowercased(self):
        r = parse(req(extra="X-Thing: Value\r\n"))
        assert r.headers["x-thing"] == "Value"

    def test_malformed_request_line(self):
        with pytest.raises(RequestError):
            parse(b"NONSENSE\r\n\r\n")

    def test_mid_request_eof(self):
        with pytest.raises(RequestError):
            parse(b"GET /x HTTP/1.1\r\nHost")

    def test_mid_body_eof(self):
        raw = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"
        with pytest.raises(RequestError):
            parse(raw)

    def test_chunked_rejected(self):
        with pytest.raises(RequestError):
            parse(req(extra="Transfer-Encoding: chunked\r\n"))

    def test_oversized_body_maps_to_413(self):
        raw = b"POST /x HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"x" * 100
        with pytest.raises(RequestError) as exc_info:
            parse(raw, max_body=10)
        assert status_of(exc_info.value) == 413
        assert error_payload(exc_info.value)["error"] == "payload_too_large"

    def test_bad_content_length(self):
        with pytest.raises(RequestError):
            parse(b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n")

    def test_unsupported_protocol_version(self):
        with pytest.raises(RequestError):
            parse(b"GET /x SPDY/3\r\n\r\n")

    def test_bad_json_body(self):
        r = parse(req(body=b"{nope"))
        with pytest.raises(RequestError):
            r.json()

    def test_bottomless_json_body(self):
        r = parse(req(body=b"[" * 100_000))
        with pytest.raises(RequestError, match="not valid JSON"):
            r.json()

    def test_empty_body_json_is_empty_object(self):
        assert parse(req()).json() == {}


class TestRenderResponse:
    def test_round_trip_through_reader(self):
        raw = render_response(200, {"ok": True})
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.decode().split("\r\n")
        assert lines[0] == "HTTP/1.1 200 OK"
        assert json.loads(body) == {"ok": True}
        assert f"Content-Length: {len(body)}" in head.decode()

    def test_bytes_payload_passes_through(self):
        raw = render_response(200, b'{"x":1}')
        assert raw.endswith(b'{"x":1}')

    def test_connection_header_follows_keep_alive(self):
        assert b"Connection: keep-alive" in render_response(200, {})
        assert b"Connection: close" in render_response(
            200, {}, keep_alive=False
        )

    def test_deterministic_encoding(self):
        a = render_response(200, {"b": 1, "a": 2})
        b = render_response(200, {"a": 2, "b": 1})
        assert a == b


class TestErrorMapping:
    @pytest.mark.parametrize(
        "exc, status, code",
        [
            (ServiceError("x"), 500, "service_error"),
            (RequestError("x"), 400, "bad_request"),
            (TenantNotFoundError("t"), 404, "tenant_not_found"),
            (GraphNotFoundError("x"), 404, "graph_not_found"),
        ],
    )
    def test_service_errors(self, exc, status, code):
        assert status_of(exc) == status
        assert error_payload(exc)["error"] == code

    def test_assumption_violation_is_422(self):
        exc = AssumptionError("needs full loops")
        assert status_of(exc) == 422
        assert error_payload(exc)["error"] == "assumption_violated"

    def test_library_error_is_400(self):
        exc = ReproError("bad factor")
        assert status_of(exc) == 400
        assert error_payload(exc)["error"] == "bad_input"

    def test_unknown_exception_is_500(self):
        exc = ValueError("boom")
        assert status_of(exc) == 500
        assert error_payload(exc)["error"] == "internal"

    def test_structured_context_in_body(self):
        exc = ServiceError(
            "bad entry", digest="aXb", property="triangles", params={"k": 1}
        )
        doc = error_payload(exc)
        assert doc["context"] == {
            "digest": "aXb",
            "property": "triangles",
            "params": {"k": 1},
        }

    def test_same_error_same_body(self):
        one = error_payload(TenantNotFoundError("alice"))
        two = error_payload(TenantNotFoundError("alice"))
        assert one == two


class TestHTTPRequest:
    def test_keep_alive_case_insensitive(self):
        r = HTTPRequest("GET", "/", {"connection": "Close"})
        assert not r.keep_alive


class TestIntIds:
    def test_shapes_and_dtype(self):
        flat = int_ids([3, 0, 2**63 - 1, -(2**63)], "v")
        assert flat.dtype == np.int64
        assert flat.tolist() == [3, 0, 2**63 - 1, -(2**63)]
        pairs = int_ids([[0, 1], [2, 3]], "p", 2)
        assert pairs.dtype == np.int64 and pairs.tolist() == [[0, 1], [2, 3]]
        assert int_ids([], "v").shape == (0,)
        assert int_ids([], "p", 2).shape == (0, 2)

    @pytest.mark.parametrize(
        "value, width",
        [
            (None, 1), ({"0": 1}, 1), ("12", 1), (7, 1),
            ([1.0], 1), ([1.7], 1), (["1"], 1), ([True], 1), ([None], 1),
            ([[1]], 1), ([1, [2]], 1), ([2**63], 1), ([-(2**63) - 1], 1),
            ([1, 2, 3, 4], 2), ([[1, 2, 3]], 2), ([[1], [2, 3, 4]], 2),
            ([[1, 2], 3], 2), ([[1, 2.0]], 2), ([[1, [2]]], 2), (["ab"], 2),
            ([{"a": 1, "b": 2}], 2), ([[1, 2], None], 2), ([[1, 2**64]], 2),
        ],
    )
    def test_everything_else_is_a_400_with_context(self, value, width):
        with pytest.raises(RequestError, match="'ids' must be a list of") as err:
            int_ids(value, "'ids'", width, params={"k": 1})
        assert err.value.http_status == 400
        assert err.value.context() == {"params": {"k": 1}}

    def test_strings_are_refused_before_numpy_sizes_an_array_by_them(self):
        # np.asarray without a dtype would make this k * 4 * len(longest).
        hostile = ["a"] * 50_000 + ["b" * 1_000_000]
        tracemalloc.start()
        try:
            with pytest.raises(RequestError):
                int_ids(hostile, "v")
            with pytest.raises(RequestError):
                int_ids([[s, 0] for s in hostile], "p", 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20


class TestArrayBody:
    @pytest.mark.parametrize(
        "values",
        [
            np.array([], dtype=bool),
            np.array([True]),
            np.array([False, True, True, False, False]),
            np.array([], dtype=np.int64),
            np.array([0]),
            np.array([7, 0, 10, 99, 100, 441, 1, 2**62, 10**18 - 1]),
            np.arange(1000, dtype=np.int32),
            np.array([9999, 10**4, 0, 10**8 - 1, 10**8, 10**16, 2**63 - 1]),
            np.array([0, 0, 0]),
        ],
    )
    def test_bytes_are_json_dumps(self, values):
        key = "exists" if values.dtype == bool else "degrees"
        want = json.dumps({key: values.tolist()}, sort_keys=True) + "\n"
        assert array_body(key, values) == want.encode()


#: Every limb boundary of the 4-digit cells, and the int64 ceiling.
LIMB_EDGES = [0, 9, 10, 9999, 10**4, 10**8 - 1, 10**8, 10**16, 2**63 - 1]


def join_text(values) -> bytes:
    return (", ".join(map(str, values)) + ", ").encode() if len(values) else b""


class TestIntText:
    @pytest.mark.parametrize("value", LIMB_EDGES)
    def test_limb_edges_alone_and_beside_zero(self, value):
        for values in ([value], [value, 0], [0, value], [value, 1, value]):
            assert int_text(np.array(values, dtype=np.int64)) == join_text(values)

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.sampled_from(LIMB_EDGES),
                st.integers(0, 2**63 - 1),
                st.integers(0, 99999),
                st.integers(1, 18).flatmap(
                    lambda w: st.integers(10 ** (w - 1), 10**w - 1)
                ),
            ),
            max_size=40,
        )
    )
    def test_equals_str_join(self, values):
        assert int_text(np.array(values, dtype=np.int64)) == join_text(values)

    def test_narrow_dtypes(self):
        values = np.array([0, 7, 2**31 - 1], dtype=np.int32)
        assert int_text(values) == join_text(values.tolist())
        assert int_text(np.array([255, 0], dtype=np.uint8)) == b"255, 0, "


def dict_form(vertices, totals, counts, ids):
    """The reply as a list of dicts through ``json.dumps``: the reference."""
    out, at = [], 0
    for p, t, c in zip(vertices, totals, counts):
        out.append({"p": p, "neighbors": ids[at : at + c], "degree_total": t,
                    "truncated": c < t})
        at += c
    return (json.dumps({"neighborhoods": out}, sort_keys=True) + "\n").encode()


class TestNeighborhoodsBody:
    @pytest.mark.parametrize(
        "vertices, totals, counts, ids",
        [
            ([], [], [], []),
            ([5], [0], [0], []),  # an empty neighbourhood
            ([5, 6, 5], [0, 0, 0], [0, 0, 0], []),
            ([0, 1, 2], [0, 2, 0], [0, 2, 0], [10**4, 9999]),  # empties around
            ([3, 3], [4, 4], [4, 1], [0, 3, 9, 10, 0]),  # repeated, truncated
            ([7], [5], [0], []),  # limit 0
            ([2**40], [2], [2], [2**63 - 1, 0]),
        ],
    )
    def test_bytes_are_json_dumps(self, vertices, totals, counts, ids):
        arrays = [np.array(x, dtype=np.int64) for x in (vertices, totals, counts, ids)]
        assert neighborhoods_body(*arrays) == dict_form(vertices, totals, counts, ids)

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 10**9),
                st.lists(st.integers(0, 10**12), max_size=8),
                st.integers(0, 3),
            ),
            max_size=12,
        )
    )
    def test_random_batches(self, rows):
        vertices = [p for p, _, _ in rows]
        totals = [len(ids) + extra for _, ids, extra in rows]
        counts = [len(ids) for _, ids, _ in rows]
        ids = [i for _, row, _ in rows for i in row]
        arrays = [np.array(x, dtype=np.int64) for x in (vertices, totals, counts, ids)]
        assert neighborhoods_body(*arrays) == dict_form(vertices, totals, counts, ids)
