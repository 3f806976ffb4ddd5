"""Service workloads of the ledger: request in -> response out.

One ``repro-kron serve`` subprocess is driven closed-loop by this process
over two keep-alive connections: each connection sends its next request
only when the previous reply has fully arrived, which is how a client
validating an algorithm against ground truth behaves.  The server is one
event loop, so two connections keep it busy without queueing more than
one request behind the one in service.

Requests are encoded to bytes once, before timing, from a seeded pool;
the timed loop only writes and reads sockets.  Every reply of the first
pass over the pool is checked against direct ``KroneckerGraph`` calls
(analytics against ``compute_property``); the timed loop then requires
each reply to be byte-identical to the checked one, so every response
counted as answered is a correct 200.

The benchmark owns this client; it does not import the library's load
generator, whose cost it would otherwise be measuring.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import subprocess
import sys
import threading
from functools import partial
from dataclasses import dataclass
from statistics import median

import numpy as np

from common import SRC, HostProbe, metric, random_graph  # first: puts the library on sys.path

from repro.graph.edgelist import EdgeList
from repro.groundtruth.memo import params_key
from repro.kronecker.lazy import KroneckerGraph
from repro.service.analytics import compute_property
from repro.service.cache import AnalyticsCache, cache_key
from repro.service.protocol import read_request, render_response
from repro.telemetry.clock import perf_clock

from tracer import Tracer

__all__ = ["WORKLOADS", "LAYER_UNITS", "measure_end_to_end", "measure_layers"]

TENANT = "ledger"
CONNECTIONS = 2

#: The analytics the mixed workload rotates through: every served
#: property, both triangle conventions.
ANALYTICS = (
    ("summary", {}),
    ("triangles", {"convention": "no_loops"}),
    ("triangles", {"convention": "full_loops"}),
    ("degree_histogram", {}),
    ("eccentricity_histogram", {}),
    ("closeness", {"p": 0}),
    ("community", {"set_a": [0, 1], "set_b": [0, 1, 2]}),
)


@dataclass(frozen=True)
class SvcWorkload:
    name: str
    #: ``(kind, batch)`` per pool slot, repeated to fill the pool.
    pattern: tuple[tuple[str, int], ...]
    pool: int


WORKLOADS = {
    w.name: w
    for w in (
        # Batch 64: the fixed per-request cost (parse, route, telemetry,
        # socket) dominates; the lazy query is negligible.
        SvcWorkload("svc_edges_small", (("edges", 64),), 512),
        # Batch 4096: the marginal per-query cost (JSON decode, list ->
        # array, has_edges, tolist + dumps) with the fixed cost amortised.
        SvcWorkload("svc_edges_large", (("edges", 4096),), 48),
        # Small requests, large replies, and the cache hit path: half
        # neighbourhoods, a quarter degree batches, a quarter analytics.
        SvcWorkload("svc_mixed_read", (
            ("neighbors", 16), ("degrees", 256),
            ("neighbors", 16), ("analytics", 1),
        ), 224),
    )
}


@dataclass
class Request:
    kind: str
    raw: bytes
    #: Pairs or vertices asked about (analytics: 1).
    items: int
    #: What the oracle needs: the query array, or (property, params).
    query: object
    expected: bytes = b""


# --------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------- #
def build_factors(seed: int, smoke: bool) -> tuple[EdgeList, EdgeList]:
    """Connected factors with full self loops, as every analytics needs."""
    # Density 0.1 at full size: n = 4e4 and 1.75e7 directed edges in the
    # product; far above the connectivity threshold at either size.
    n, m = (40, 234) if smoke else (200, 1990)
    return (
        random_graph(n, m, seed).with_full_self_loops(),
        random_graph(n, m, seed + 1).with_full_self_loops(),
    )


def encode_request(method: str, path: str, doc=None) -> bytes:
    body = b"" if doc is None else json.dumps(doc, separators=(",", ":")).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: ledger\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


def build_pool(
    workload: SvcWorkload, graph: KroneckerGraph, base: str, seed: int, smoke: bool
) -> list[Request]:
    """The seeded request pool, every request already encoded to bytes."""
    rng = np.random.default_rng(seed)
    a, b = graph.factor_a.edges, graph.factor_b.edges
    pool = []
    size = max(len(workload.pattern), workload.pool // 8) if smoke else workload.pool
    for slot in range(size):
        kind, batch = workload.pattern[slot % len(workload.pattern)]
        if smoke:
            batch = min(batch, 32)
        leaf = kind
        if kind == "edges":
            # Half real product edges (hits), half uniform pairs (misses).
            ea = a[rng.integers(len(a), size=batch // 2)]
            eb = b[rng.integers(len(b), size=batch // 2)]
            real = ea * graph.n_b + eb
            uniform = rng.integers(graph.n, size=(batch - batch // 2, 2))
            pairs = rng.permutation(np.vstack([real, uniform]))
            doc, query = {"pairs": pairs.tolist()}, pairs
        elif kind == "analytics":
            prop, params = ANALYTICS[(slot // len(workload.pattern)) % len(ANALYTICS)]
            doc, query = {"params": params}, (prop, params)
            leaf = f"analytics/{prop}"
        else:
            vertices = rng.integers(graph.n, size=batch)
            doc, query = {"vertices": vertices.tolist()}, vertices
        raw = encode_request("POST", f"{base}/{leaf}", doc)
        pool.append(Request(kind, raw, batch, query))
    return pool


def oracle(graph: KroneckerGraph, request: Request):
    """The decoded reply body the server must produce for ``request``."""
    if request.kind == "edges":
        pairs = request.query
        return {"exists": graph.has_edges(pairs[:, 0], pairs[:, 1]).tolist()}
    if request.kind == "degrees":
        return {"degrees": graph.degree(request.query).tolist()}
    if request.kind == "neighbors":
        hoods = []
        for p in request.query.tolist():
            nbrs = graph.neighbors(p).tolist()
            hoods.append({
                "p": p, "neighbors": nbrs, "degree_total": len(nbrs),
                "truncated": False,
            })
        return {"neighborhoods": hoods}
    prop, params = request.query
    # Through JSON once, as the served value is (tuples become lists).
    return json.loads(json.dumps(compute_property(prop, graph, params)))


# --------------------------------------------------------------------- #
# the server subprocess and the client
# --------------------------------------------------------------------- #
class Server:
    """``repro-kron serve --port 0`` as a child process."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        fields = dict(tok.split("=", 1) for tok in line.split()[1:])
        if not line.startswith("REPRO_SERVE ") or "port" not in fields:
            self._reap()
            raise RuntimeError(f"server did not announce a port: {line!r}")
        self.host, self.port = fields["host"], int(fields["port"])

    def stop(self) -> None:
        """Ask the server to shut down; kill it if it does not."""
        try:
            with Connection(self.host, self.port) as conn:
                conn.roundtrip(encode_request("POST", "/v1/admin/shutdown"))
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        self._reap()

    def _reap(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


class Connection:
    """One blocking keep-alive HTTP/1.1 connection."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.pending = b""

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.sock.close()

    def roundtrip(self, raw: bytes) -> tuple[int, bytes]:
        """Send one encoded request; return ``(status, body)`` of the reply."""
        self.sock.sendall(raw)
        data = self.pending
        while (end := data.find(b"\r\n\r\n")) < 0:
            data += self._recv()
        head = data[:end].decode("latin-1").lower()
        body_at = end + 4
        at = head.index("content-length:") + len("content-length:")
        length = int(head[at:].split("\r\n", 1)[0])
        while len(data) < body_at + length:
            data += self._recv()
        self.pending = data[body_at + length:]
        return int(head[9:12]), data[body_at:body_at + length]

    def _recv(self) -> bytes:
        chunk = self.sock.recv(1 << 18)
        if not chunk:
            raise ConnectionError("server closed the connection mid-reply")
        return chunk

    def json(self, method: str, path: str, doc=None):
        status, body = self.roundtrip(encode_request(method, path, doc))
        if status != 200:
            raise RuntimeError(f"{method} {path} -> {status}: {body[:200]!r}")
        return json.loads(body)


def register(conn: Connection, a: EdgeList, b: EdgeList) -> str:
    """Register ``A (x) B`` for the tenant; the graph's URL prefix."""
    doc = conn.json("POST", f"/v1/tenants/{TENANT}/graphs", {
        "a": {"edges": a.edges.tolist(), "n": a.n},
        "b": {"edges": b.edges.tolist(), "n": b.n},
    })
    return f"/v1/tenants/{TENANT}/graphs/{doc['graph']}"


def first_pass(conn: Connection, graph: KroneckerGraph, pool: list[Request]) -> dict:
    """Send every pool request once and check each reply against the oracle.

    Records the checked reply bytes on each request, and returns how many
    replies were wrong plus the seconds the cold analytics took.
    """
    wrong, cold_s, seen = 0, 0.0, set()
    for request in pool:
        t0 = perf_clock()
        status, body = conn.roundtrip(request.raw)
        elapsed = perf_clock() - t0
        doc = json.loads(body) if status == 200 else None
        want = oracle(graph, request)
        if request.kind == "analytics":
            key = json.dumps(request.query)
            if key not in seen:
                seen.add(key)
                cold_s += elapsed
            ok = doc is not None and doc["value"] == want
            # Later replies come from the cache and say so.
            body = body.replace(b'"cached":false', b'"cached":true')
        else:
            ok = doc == want
        wrong += not ok
        request.expected = body
    return {"wrong": wrong, "cold_s": cold_s}


def closed_loop(host, port, pool, seconds) -> list[tuple[float, float, int, bool]]:
    """Drive the pool over ``CONNECTIONS`` connections for ``seconds``.

    Returns one ``(finish time, latency, items, ok)`` per request, where
    ``ok`` means a 200 whose body equals the checked reply.
    """
    results: list[list] = [[] for _ in range(CONNECTIONS)]
    errors: list[BaseException] = []
    gate = threading.Barrier(CONNECTIONS)

    def worker(index: int) -> None:
        try:
            with Connection(host, port) as conn:
                out = results[index]
                at = index * len(pool) // CONNECTIONS
                gate.wait()
                deadline = perf_clock() + seconds
                while True:
                    request = pool[at % len(pool)]
                    at += 1
                    t0 = perf_clock()
                    status, body = conn.roundtrip(request.raw)
                    t1 = perf_clock()
                    out.append((
                        t1, t1 - t0, request.items,
                        status == 200 and body == request.expected,
                    ))
                    if t1 >= deadline:
                        break
        except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
            errors.append(exc)
            gate.abort()

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(CONNECTIONS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return sorted(r for out in results for r in out)


class Session:
    """One set-up: a live server with the graph registered and checked."""

    def __init__(self, workload: SvcWorkload, seed: int, smoke: bool) -> None:
        self.server = Server()
        self.conn = None
        try:
            a, b = build_factors(seed, smoke)
            self.graph = KroneckerGraph(a, b)
            self.conn = Connection(self.server.host, self.server.port)
            t0 = perf_clock()
            self.base = register(self.conn, a, b)
            self.register_s = perf_clock() - t0
            self.pool = build_pool(workload, self.graph, self.base, seed, smoke)
            self.checked = first_pass(self.conn, self.graph, self.pool)
            # Warm-up: sockets, allocator and caches in their steady state.
            self.window(0.2 if smoke else 0.5)
        except BaseException:
            self.close()
            raise

    def window(self, seconds: float):
        return closed_loop(self.server.host, self.server.port, self.pool, seconds)

    def server_metrics(self) -> dict:
        return self.conn.json("GET", "/v1/metrics")

    def close(self) -> None:
        if self.conn is not None:
            self.conn.sock.close()
        self.server.stop()


def _elapsed(results) -> float:
    """First send to last reply of a window's requests."""
    return results[-1][0] - (results[0][0] - results[0][1])


#: The timed window is driven in slices this long, each bracketed by host
#: probes; a slice holds 300 (batch 4096) to 6000 (batch 64) requests.
SLICE_SECONDS = 1.0


def measure_end_to_end(
    workload: SvcWorkload, seed: int, seconds: float, smoke: bool
) -> dict:
    """The untraced run of one service workload."""
    host = HostProbe()
    setups, session = [], None
    slices, slowdowns = [], []
    try:
        for _ in range(1 if smoke else 3):
            if session is not None:
                session.close()
                session = None
            t0 = perf_clock()
            session = Session(workload, seed, smoke)
            setups.append(perf_clock() - t0)
        for _ in range(max(1, round(seconds / SLICE_SECONDS))):
            results, slowdown = host.bracket(
                partial(session.window, SLICE_SECONDS)
            )
            slices.append(results)
            slowdowns.append(slowdown)
    finally:
        if session is not None:
            session.close()
    sent = sum(len(results) for results in slices)
    good = [[r for r in results if r[3]] for results in slices]
    if not all(good):
        raise RuntimeError(f"{workload.name}: a slice without one correct reply")
    return {
        "attempted": sent + len(session.pool),
        "failed": sent - sum(map(len, good)) + session.checked["wrong"],
        "host_slowdown": median(host.samples),
        "metrics": {
            "items_per_s": metric(
                "1/s",
                [
                    sum(r[2] for r in ok) / _elapsed(results)
                    for ok, results in zip(good, slices)
                ],
                slowdowns, rate=True,
            ),
            "wait_p50_ms": metric(
                "ms", [1e3 * median(r[1] for r in ok) for ok in good], slowdowns
            ),
            "setup_s": metric("s", setups, pick=min),
        },
    }


# --------------------------------------------------------------------- #
# traced run: the request path, layer by layer
# --------------------------------------------------------------------- #
#: Per-layer metrics of the service workloads, with their units.
LAYER_UNITS = {
    "protocol.parse.us": "us",
    "protocol.json_decode.us": "us",
    "protocol.render.us": "us",
    "protocol.request.bytes": "bytes",
    "protocol.response.bytes": "bytes",
    "lazy.has_edges.us": "us",
    "lazy.has_edges.queries_per_s": "1/s",
    "lazy.degree.us": "us",
    "lazy.neighbors.us": "us",
    "cache.hit.us": "us",
    "cache.hit_rate": "fraction",
    "analytics.cold.seconds": "s",
    "server.healthz.us": "us",
    "server.latency_p50.us": "us",
    "server.latency_p99.us": "us",
    "server.layers.us": "us",
    "server.residual.us": "us",
    "server.requests": "count",
    "server.requests_per_s": "1/s",
    "server.errors": "count",
    "registry.register.seconds": "s",
    "host.slowdown": "ratio",
}


async def _parse_all(pool: list[Request], tracer: Tracer, rep: int) -> list:
    """``read_request`` on a fed stream, one request at a time."""
    parsed = []
    for slot, request in enumerate(pool):
        reader = asyncio.StreamReader()
        reader.feed_data(request.raw)
        reader.feed_eof()
        with tracer.span("protocol.parse", rank=slot, rep=rep):
            parsed.append(await read_request(reader))
    return parsed


def _local_layers(session: Session, tracer: Tracer, reps: int) -> None:
    """Time each layer's public functions on every request of the pool.

    Spans are tagged with the pool slot (as ``rank``) so the tracer keeps
    one median per request; the metric is the median over the pool.
    """
    graph, pool = session.graph, session.pool
    cache = AnalyticsCache()
    for request in pool:
        if request.kind == "analytics":
            prop, params = request.query
            payload = json.dumps(
                compute_property(prop, graph, params),
                sort_keys=True, separators=(",", ":"),
            ).encode()
            cache.insert(_cache_key(request), payload)
    for rep in range(reps):
        parsed = asyncio.run(_parse_all(pool, tracer, rep))
        for slot, (request, http) in enumerate(zip(pool, parsed)):
            tag = {"rank": slot, "rep": rep}
            with tracer.span("protocol.json_decode", **tag):
                http.json()
            query = request.query
            if request.kind == "edges":
                with tracer.span("lazy.has_edges", **tag):
                    result = graph.has_edges(query[:, 0], query[:, 1])
                with tracer.span("protocol.render", **tag):
                    render_response(200, {"exists": result.tolist()})
            elif request.kind == "degrees":
                with tracer.span("lazy.degree", **tag):
                    result = graph.degree(query)
                with tracer.span("protocol.render", **tag):
                    render_response(200, {"degrees": result.tolist()})
            elif request.kind == "neighbors":
                with tracer.span("lazy.neighbors", **tag):
                    hoods = [graph.neighbors(p) for p in query.tolist()]
                with tracer.span("protocol.render", **tag):
                    render_response(200, {"neighborhoods": [
                        {"p": p, "neighbors": h.tolist(),
                         "degree_total": len(h), "truncated": False}
                        for p, h in zip(query.tolist(), hoods)
                    ]})
            else:
                with tracer.span("cache.hit", **tag):
                    payload = cache.lookup(_cache_key(request))
                with tracer.span("protocol.render", **tag):
                    render_response(200, payload)


def _cache_key(request: Request) -> tuple:
    prop, params = request.query
    return cache_key("a", "b", prop, params_key(params))


def measure_layers(
    workload: SvcWorkload, seed: int, seconds: float, smoke: bool, tracer: Tracer
) -> dict:
    """The traced run: per-layer metrics of one service workload.

    A closed-loop window against the live server gives the latency and
    the server's own counters; then each layer's public functions are
    timed in this process on the same pool, and what the layers do not
    explain is reported as the server's residual.
    """
    reps = 1 if smoke else 3
    with tracer.span("setup"):
        session = Session(workload, seed, smoke)
    host = HostProbe()
    try:
        before = session.server_metrics()
        with tracer.span("window"):
            results, slowdown = host.bracket(partial(session.window, seconds / 2))
        after = session.server_metrics()
        healthz = encode_request("GET", "/healthz")
        with tracer.span("server.healthz"):
            floor = []
            for _ in range(50 if smoke else 1000):
                t0 = perf_clock()
                session.conn.roundtrip(healthz)
                floor.append(perf_clock() - t0)
        with tracer.span("layers"):
            _local_layers(session, tracer, reps)
    finally:
        session.close()

    def pool_median_us(name: str) -> float:
        per_request = tracer.layer_seconds(name)
        return 1e6 * median(per_request.values()) if per_request else 0.0

    def delta(path: tuple[str, ...]) -> float:
        a, b = before, after
        for key in path:
            a, b = a.get(key, {}), b.get(key, {})
        return (b or 0) - (a or 0)

    good = [r for r in results if r[3]]
    latencies = [r[1] for r in good]
    layer_names = (
        "protocol.parse", "protocol.json_decode", "protocol.render",
        "lazy.has_edges", "lazy.degree", "lazy.neighbors", "cache.hit",
    )
    # Each request runs parse, decode, one query layer and render; summing
    # the per-request layer times and taking the pool median keeps the mix.
    own = tracer.self_seconds()
    per_request: dict[int, dict[int, float]] = {}
    for span, seconds_own in zip(tracer.spans, own):
        if span["name"] in layer_names:
            slot, rep = span["args"]["rank"], span["args"]["rep"]
            by_rep = per_request.setdefault(slot, {})
            by_rep[rep] = by_rep.get(rep, 0.0) + seconds_own
    layers_us = 1e6 * median(median(v.values()) for v in per_request.values())
    p50_us = 1e6 * median(latencies)
    hits = delta(("cache", "hits"))
    misses = delta(("cache", "misses"))
    has_edges_us = pool_median_us("lazy.has_edges")
    edge_batch = median(
        [r.items for r in session.pool if r.kind == "edges"] or [0]
    )
    values = {
        "protocol.parse.us": pool_median_us("protocol.parse"),
        "protocol.json_decode.us": pool_median_us("protocol.json_decode"),
        "protocol.render.us": pool_median_us("protocol.render"),
        "protocol.request.bytes": median(len(r.raw) for r in session.pool),
        "protocol.response.bytes": median(len(r.expected) for r in session.pool),
        "lazy.has_edges.us": has_edges_us,
        "lazy.has_edges.queries_per_s": (
            1e6 * edge_batch / has_edges_us if has_edges_us else 0.0
        ),
        "lazy.degree.us": pool_median_us("lazy.degree"),
        "lazy.neighbors.us": pool_median_us("lazy.neighbors"),
        "cache.hit.us": pool_median_us("cache.hit"),
        "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "analytics.cold.seconds": session.checked["cold_s"],
        "server.healthz.us": 1e6 * median(floor),
        "server.latency_p50.us": p50_us,
        "server.latency_p99.us": 1e6 * float(np.quantile(latencies, 0.99)),
        "server.layers.us": layers_us,
        "server.residual.us": p50_us - layers_us,
        "server.requests": delta(("metrics", "counters", "service.requests")),
        "server.requests_per_s": len(good) / _elapsed(results),
        "server.errors": delta(("metrics", "counters", "service.errors")),
        "registry.register.seconds": session.register_s,
        "host.slowdown": slowdown,
    }
    failed = len(results) - len(good) + session.checked["wrong"]
    return {
        "attempted": len(results) + len(session.pool),
        "failed": failed,
        "metrics": {
            name: metric(LAYER_UNITS[name], [value]) for name, value in values.items()
        },
    }
