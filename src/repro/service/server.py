"""The asyncio ground-truth query server.

One :class:`KronService` owns a content-addressed registry, an analytics
cache, and a telemetry sink; ``asyncio.start_server`` feeds it
keep-alive HTTP/1.1 connections.  Every request -- including failing
ones -- runs under a ``service.request`` span and lands in the metrics
registry (``service.requests``, per-status counters, a
``service.latency_s`` histogram), so a served workload is observable
with exactly the machinery the generation pipeline already uses: export
the trace, validate it with
``python -m repro.telemetry.validate --require-span service.request``.
The analytics cache counts its own hits, misses and evictions;
``GET /v1/metrics`` reports them under ``"cache"``.

Request handling is single-threaded on the event loop: ground-truth
formulas at serving scale are sub-millisecond, and the lazy
:class:`~repro.kronecker.lazy.KroneckerGraph` answers batched edge
queries with one vectorized lookup per factor, so the loop stays
responsive without a thread pool (and registry/cache mutation needs no
locks).

Id batches (``edges``, ``degrees``, ``neighbors``) never become Python
objects per id when spelled canonically: :func:`~repro.service.protocol.id_batch`
reads them from the request bytes into an ``int64`` array, and every
reply is rendered from arrays: ``exists`` / ``degrees`` by
:func:`~repro.service.protocol.array_body`, neighbourhoods by
:func:`~repro.service.protocol.neighborhoods_body`, each integer through
the one kernel :func:`~repro.service.protocol.int_text`.  Any other
spelling is decoded by ``json.loads`` and
:func:`~repro.service.protocol.int_ids`, which own every error body.

API (all JSON)::

    GET  /healthz
    GET  /v1/properties
    GET  /v1/metrics
    POST /v1/admin/shutdown
    POST /v1/tenants/{t}/factors                 {"edges": [[u,v],...], ...}
    POST /v1/tenants/{t}/graphs                  {"factor_a": d, "factor_b": d}
    GET  /v1/tenants/{t}/graphs
    GET  /v1/tenants/{t}/graphs/{g}/summary
    POST /v1/tenants/{t}/graphs/{g}/edges        {"pairs": [[p,q],...]}
    POST /v1/tenants/{t}/graphs/{g}/degrees      {"vertices": [p,...]}
    POST /v1/tenants/{t}/graphs/{g}/neighbors    {"vertices": [p,...], "limit": k}
    POST /v1/tenants/{t}/graphs/{g}/analytics/{property}   {"params": {...}}
    POST /v1/tenants/{t}/skg                     {"seed_matrix": name, ...}
    GET  /v1/tenants/{t}/skg
    GET  /v1/tenants/{t}/skg/{d}/summary
    POST /v1/tenants/{t}/skg/{d}/expected/{property}       {"params": {...}}

The ``skg`` routes serve the stochastic tier: specs are registered by
content address (the same 64-bit digest the distributed run keys fold),
and closed-form *expected* properties from :mod:`repro.skg.expected`
flow through the same analytics cache as the exact ground truth, keyed
under the ``("skg", digest)`` pair address.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.errors import RequestError, ServiceError
from repro.groundtruth.memo import params_key
from repro.kronecker.lazy import KroneckerGraph
from repro.service.analytics import compute_property, property_names
from repro.service.cache import AnalyticsCache, cache_key
from repro.service.protocol import (
    MAX_BATCH,
    MAX_REPLY_IDS,
    HTTPRequest,
    array_body,
    error_payload,
    id_batch,
    int_ids,
    neighborhoods_body,
    read_request,
    render_response,
    status_of,
)
from repro.service.registry import GraphHandle, ServiceRegistry
from repro.skg.expected import (
    compute_expected_property,
    expected_property_names,
)
from repro.telemetry.clock import perf_clock
from repro.telemetry.session import RankTelemetry, TelemetryConfig, TelemetrySession

__all__ = ["ServiceConfig", "KronService", "MAX_BATCH"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one server instance."""

    host: str = "127.0.0.1"
    port: int = 0
    cache_size: int = 512
    #: Whether POST /v1/admin/shutdown is honored (CI and tests use it to
    #: stop a background server deterministically).
    allow_shutdown: bool = True


class KronService:
    """Multi-tenant Kronecker ground-truth query server."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.telemetry = RankTelemetry(TelemetryConfig(), rank=0)
        self.registry = ServiceRegistry()
        self.cache = AnalyticsCache(maxsize=self.config.cache_size)
        self._clock = perf_clock
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        self._connections: set[asyncio.Task] = set()

    # ---- lifecycle ------------------------------------------------------
    @property
    def bound_port(self) -> int:
        """The actual listening port (resolves ``port=0``)."""
        if self._server is None or not self._server.sockets:
            raise ServiceError("server is not listening")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "KronService":
        self._server = await asyncio.start_server(
            self._on_connection, host=self.config.host, port=self.config.port
        )
        return self

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def serve_until_shutdown(self) -> None:
        """Serve until :meth:`request_shutdown`; then close everything."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        await self.aclose()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)

    def trace_session(self) -> TelemetrySession:
        """A session holding this server's trace, ready to export."""
        session = TelemetrySession(self.telemetry.config)
        session.ranks = [self.telemetry.finalize()]
        return session

    # ---- connection loop ------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except RequestError as exc:
                    # Unparseable request: answer if possible, then close.
                    writer.write(
                        render_response(
                            status_of(exc), error_payload(exc), keep_alive=False
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self._dispatch(request)
                writer.write(response)
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _dispatch(self, request: HTTPRequest) -> bytes:
        """Route one request under a ``service.request`` span.

        Every request -- including 404s and handler failures -- exits
        through here with a JSON body, a span covering the full handler,
        and the counters/histogram updated; route and status land in
        metrics (span args are fixed at creation, before either is
        known).
        """
        tel = self.telemetry
        t0 = self._clock()
        route = "?"
        status = 200
        with tel.span(
            "service.request",
            cat="service",
            method=request.method,
            path=request.path,
        ):
            try:
                route, handler, args = self._route(request)
                payload = await handler(request, *args)
                body = render_response(
                    status, payload, keep_alive=request.keep_alive
                )
            except Exception as exc:  # noqa: BLE001 - every error -> JSON
                status = status_of(exc)
                tel.add("service.errors")
                body = render_response(
                    status, error_payload(exc), keep_alive=request.keep_alive
                )
        tel.add("service.requests")
        tel.add(f"service.route.{route}")
        tel.add(f"service.status.{status}")
        tel.observe("service.latency_s", self._clock() - t0)
        return body

    # ---- routing --------------------------------------------------------
    def _route(self, request: HTTPRequest):
        parts = [p for p in request.path.split("?")[0].split("/") if p]
        method = request.method

        if parts == ["healthz"] and method == "GET":
            return "healthz", self._h_healthz, ()
        if parts == ["v1", "properties"] and method == "GET":
            return "properties", self._h_properties, ()
        if parts == ["v1", "metrics"] and method == "GET":
            return "metrics", self._h_metrics, ()
        if parts == ["v1", "admin", "shutdown"] and method == "POST":
            return "admin.shutdown", self._h_shutdown, ()
        if len(parts) >= 3 and parts[:2] == ["v1", "tenants"]:
            tenant = parts[2]
            rest = parts[3:]
            if rest == ["factors"] and method == "POST":
                return "factors.register", self._h_register_factor, (tenant,)
            if rest == ["graphs"] and method == "POST":
                return "graphs.register", self._h_register_graph, (tenant,)
            if rest == ["graphs"] and method == "GET":
                return "graphs.list", self._h_list_graphs, (tenant,)
            if len(rest) == 3 and rest[0] == "graphs":
                gkey, leaf = rest[1], rest[2]
                if leaf == "summary" and method == "GET":
                    return "graph.summary", self._h_summary, (tenant, gkey)
                if method == "POST" and leaf in ("edges", "degrees", "neighbors"):
                    handler = {
                        "edges": self._h_edges,
                        "degrees": self._h_degrees,
                        "neighbors": self._h_neighbors,
                    }[leaf]
                    return f"graph.{leaf}", handler, (tenant, gkey)
            if len(rest) == 4 and rest[0] == "graphs" and rest[2] == "analytics":
                if method == "POST":
                    return (
                        "graph.analytics",
                        self._h_analytics,
                        (tenant, rest[1], rest[3]),
                    )
            if rest == ["skg"] and method == "POST":
                return "skg.register", self._h_register_skg, (tenant,)
            if rest == ["skg"] and method == "GET":
                return "skg.list", self._h_list_skg, (tenant,)
            if len(rest) == 3 and rest[0] == "skg" and rest[2] == "summary":
                if method == "GET":
                    return "skg.summary", self._h_skg_summary, (tenant, rest[1])
            if len(rest) == 4 and rest[0] == "skg" and rest[2] == "expected":
                if method == "POST":
                    return (
                        "skg.expected",
                        self._h_skg_expected,
                        (tenant, rest[1], rest[3]),
                    )
        raise _NoRoute(f"no route for {method} {request.path}")

    # ---- handlers -------------------------------------------------------
    async def _h_healthz(self, request: HTTPRequest) -> dict:
        return {"ok": True, "graphs": self.registry.num_graphs}

    async def _h_properties(self, request: HTTPRequest) -> dict:
        return {
            "properties": property_names(),
            "skg_expected": expected_property_names(),
        }

    async def _h_metrics(self, request: HTTPRequest) -> dict:
        return {
            "metrics": self.telemetry.metrics.snapshot(),
            "cache": {
                "size": len(self.cache),
                "maxsize": self.cache.maxsize,
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "evictions": self.cache.evictions,
                "hit_rate": self.cache.hit_rate,
            },
            "registry": {
                "factors": self.registry.num_factors,
                "graphs": self.registry.num_graphs,
                "skg": self.registry.num_skg,
                "tenants": self.registry.tenants,
            },
        }

    async def _h_shutdown(self, request: HTTPRequest) -> dict:
        if not self.config.allow_shutdown:
            raise RequestError("shutdown endpoint is disabled")
        # Respond first (the caller gets its 200), stop accepting after.
        asyncio.get_running_loop().call_soon(self.request_shutdown)
        return {"ok": True, "shutting_down": True}

    async def _h_register_factor(
        self, request: HTTPRequest, tenant: str
    ) -> dict:
        el = self.registry.factor_from_payload(request.json())
        digest = self.registry.register_factor(el)
        self.registry.ensure_tenant(tenant)
        self.telemetry.add("service.factors_registered")
        return {
            "digest": digest,
            "n": el.n,
            "m_directed": el.m_directed,
        }

    async def _h_register_graph(
        self, request: HTTPRequest, tenant: str
    ) -> dict:
        doc = request.json()
        if "a" in doc or "b" in doc:
            # Inline one-shot form: register both factors and the graph.
            if not ("a" in doc and "b" in doc):
                raise RequestError("inline registration needs both 'a' and 'b'")
            digest_a = self.registry.register_factor(
                self.registry.factor_from_payload(doc["a"])
            )
            digest_b = self.registry.register_factor(
                self.registry.factor_from_payload(doc["b"])
            )
        else:
            digest_a = doc.get("factor_a")
            digest_b = doc.get("factor_b")
            if not isinstance(digest_a, str) or not isinstance(digest_b, str):
                raise RequestError(
                    "graph registration needs 'factor_a'/'factor_b' digests "
                    "or inline 'a'/'b' factor payloads"
                )
        handle = self.registry.register_graph(tenant, digest_a, digest_b)
        self.telemetry.add("service.graphs_registered")
        return handle.summary()

    async def _h_list_graphs(self, request: HTTPRequest, tenant: str) -> dict:
        return {
            "graphs": [h.summary() for h in self.registry.graphs_of(tenant)]
        }

    async def _h_summary(
        self, request: HTTPRequest, tenant: str, gkey: str
    ) -> dict:
        return self.registry.graph(tenant, gkey).summary()

    def _graph_and_batch(
        self, request: HTTPRequest, tenant: str, gkey: str, field: str, width: int
    ) -> tuple[GraphHandle, np.ndarray, dict]:
        """The named graph, the body's ``field`` ids (range-checked) and the
        decoded body -- ``{}`` when :func:`id_batch` read the ids, since a
        canonical batch body carries nothing else."""
        ids = id_batch(request.body, field, width)  # at most MAX_BATCH
        doc = {} if ids is not None else request.json()
        handle = self.registry.graph(tenant, gkey)
        if ids is None:
            value = doc.get(field)
            if not isinstance(value, list):
                raise RequestError(f"body must carry a {field!r} list")
            if len(value) > MAX_BATCH:
                raise RequestError(
                    f"batch of {len(value)} exceeds the {MAX_BATCH} limit"
                )
            ids = int_ids(value, repr(field), width)
        n = handle.graph.n
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise RequestError(f"vertex ids outside 0..{n - 1}")
        return handle, ids, doc

    async def _h_edges(
        self, request: HTTPRequest, tenant: str, gkey: str
    ) -> bytes:
        handle, pairs, _ = self._graph_and_batch(request, tenant, gkey, "pairs", 2)
        exists = handle.graph.has_edges(pairs[:, 0], pairs[:, 1])
        self.telemetry.add("service.edge_queries", len(pairs))
        return array_body("exists", exists)

    async def _h_degrees(
        self, request: HTTPRequest, tenant: str, gkey: str
    ) -> bytes:
        handle, vertices, _ = self._graph_and_batch(
            request, tenant, gkey, "vertices", 1
        )
        degrees = handle.graph.degree(vertices)
        self.telemetry.add("service.degree_queries", len(vertices))
        return array_body("degrees", degrees)

    async def _h_neighbors(
        self, request: HTTPRequest, tenant: str, gkey: str
    ) -> bytes:
        handle, vertices, doc = self._graph_and_batch(
            request, tenant, gkey, "vertices", 1
        )
        limit = doc.get("limit")
        if limit is not None and (
            not isinstance(limit, int) or isinstance(limit, bool) or limit < 0
        ):
            raise RequestError("'limit' must be a non-negative integer")
        graph = handle.graph
        # The reply is sized from the factor degree vectors before any id
        # is expanded, and only the ids it carries are.
        totals = graph.degree_total(vertices)
        counts = totals
        if limit is not None and totals.size:
            # Clamped first: a limit past every total truncates nothing,
            # and one past int64 must not reach numpy.
            counts = np.minimum(totals, min(limit, int(totals.max())))
        size = int(counts.sum())
        if size > MAX_REPLY_IDS:
            raise RequestError(
                f"reply of {size} neighbour ids exceeds the {MAX_REPLY_IDS} "
                f"limit; pass a smaller 'limit' or fewer vertices"
            )
        ids = np.empty(size, dtype=np.int64)
        at = 0
        for p, c in zip(vertices.tolist(), counts.tolist()):
            if c:
                ids[at : at + c] = graph.neighbors(p, c)
                at += c
        self.telemetry.add("service.neighbor_queries", len(vertices))
        return neighborhoods_body(vertices, totals, counts, ids)

    async def _h_analytics(
        self, request: HTTPRequest, tenant: str, gkey: str, prop: str
    ) -> bytes:
        handle = self.registry.graph(tenant, gkey)
        return self._cached_answer(
            request, prop, span="service.analytics",
            address=(handle.digest_a, handle.digest_b),
            head=f'"graph":"{handle.key}"',
            compute=lambda params: compute_property(prop, handle.graph, params),
        )

    def _cached_answer(
        self, request: HTTPRequest, prop: str, *, span: str,
        address: tuple[str, str], head: str, compute: Callable[[dict], Any],
    ) -> bytes:
        """``compute(params)`` cached under ``(*address, prop, params)``,
        its bytes spliced after ``head`` without reserialization."""
        params = request.json().get("params", {})
        if not isinstance(params, dict):
            raise RequestError("'params' must be an object", property=prop)
        key = cache_key(*address, prop, params_key(params))
        with self.telemetry.span(span, cat="service", property=prop):
            payload, was_hit = self.cache.get_or_compute(
                key, lambda: compute(params)
            )
        self.telemetry.add(f"{span}_queries")
        hit = "true" if was_hit else "false"
        prefix = f'{{{head},"property":"{prop}","cached":{hit},"value":'
        return prefix.encode("utf-8") + payload + b"}"

    # ---- stochastic tier ------------------------------------------------
    async def _h_register_skg(self, request: HTTPRequest, tenant: str) -> dict:
        spec = self.registry.skg_spec_from_payload(request.json())
        handle = self.registry.register_skg(tenant, spec)
        self.telemetry.add("service.skg_registered")
        return handle.summary()

    async def _h_list_skg(self, request: HTTPRequest, tenant: str) -> dict:
        return {"skg": [h.summary() for h in self.registry.skgs_of(tenant)]}

    async def _h_skg_summary(
        self, request: HTTPRequest, tenant: str, digest: str
    ) -> dict:
        return self.registry.skg(tenant, digest).summary()

    async def _h_skg_expected(
        self, request: HTTPRequest, tenant: str, digest: str, prop: str
    ) -> bytes:
        """Served expected property, cached under ``("skg", digest)``: the
        literal marker can never collide with a 16-hex factor digest."""
        handle = self.registry.skg(tenant, digest)
        return self._cached_answer(
            request, prop, span="service.skg_expected",
            address=("skg", handle.digest), head=f'"skg":"{handle.digest}"',
            compute=lambda params: compute_expected_property(
                prop, handle.spec, params
            ),
        )


class _NoRoute(RequestError):
    http_status = 404
    code = "not_found"
