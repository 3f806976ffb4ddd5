"""Content-addressed multi-tenant factor / graph registry.

Factors are registered into a *global* content-addressed pool: the same
edge set always maps to the same 16-hex-digit digest
(:func:`repro.groundtruth.memo.factor_digest`), so two tenants uploading
the same factor share one stored :class:`~repro.graph.edgelist.EdgeList`
and one CSR.  *Graphs* -- lazy Kronecker products of two registered
factors -- are per-tenant: a tenant can only query products it
registered, but the underlying :class:`KroneckerGraph` object is shared
through the same content addressing (``graph key = digest_A + "x" +
digest_B``), so the analytics cache warms across tenants.

*SKG specs* -- the stochastic tier's :class:`~repro.skg.model.SKGSpec`
parameter bundles -- follow the same pattern: the pool is content
addressed by the spec digest (the same 64-bit digest the distributed
run keys fold), visibility is per tenant, and served expected-property
answers flow through the same :class:`~repro.service.AnalyticsCache`
with ``("skg", digest)`` standing in for the factor-pair address.

Nothing here is async; the registry is plain data guarded by the event
loop's single-threaded execution (the server never awaits while mutating
it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import GraphNotFoundError, RequestError, TenantNotFoundError
from repro.graph.edgelist import EdgeList
from repro.groundtruth.memo import factor_digest
from repro.kronecker.lazy import KroneckerGraph
from repro.service.protocol import int_ids
from repro.skg.model import SKGSpec

__all__ = ["digest_hex", "GraphHandle", "SKGHandle", "ServiceRegistry"]


def digest_hex(digest: int) -> str:
    """Canonical 16-hex-digit rendering of a 64-bit content digest."""
    return f"{digest & 0xFFFFFFFFFFFFFFFF:016x}"


@dataclass(frozen=True)
class GraphHandle:
    """One registered product: the lazy graph plus its content address."""

    key: str
    digest_a: str
    digest_b: str
    graph: KroneckerGraph

    def summary(self) -> dict:
        g = self.graph
        return {
            "graph": self.key,
            "factor_a": self.digest_a,
            "factor_b": self.digest_b,
            "n": g.n,
            "m_directed": g.m_directed,
            "num_self_loops": g.num_self_loops,
            "factors": {
                "a": {"n": g.n_a, "m_directed": g.factor_a.m_directed},
                "b": {"n": g.n_b, "m_directed": g.factor_b.m_directed},
            },
        }


@dataclass(frozen=True)
class SKGHandle:
    """One registered stochastic spec plus its content address."""

    digest: str
    spec: SKGSpec

    def summary(self) -> dict:
        s = self.spec
        return {
            "skg": self.digest,
            "name": s.name,
            "k": s.k,
            "n": s.n,
            "theta": list(s.theta),
            "skg_seed": s.skg_seed,
            "noise_b": s.noise_b,
            "noise_seed": s.noise_seed,
            "directed": s.directed,
            "self_loops": s.self_loops,
        }


@dataclass
class _Tenant:
    graphs: dict[str, GraphHandle] = field(default_factory=dict)
    skgs: dict[str, SKGHandle] = field(default_factory=dict)


class ServiceRegistry:
    """Factor pool + per-tenant graph table."""

    def __init__(self) -> None:
        self._factors: dict[str, EdgeList] = {}
        self._graphs: dict[str, KroneckerGraph] = {}  # content-addressed pool
        self._skgs: dict[str, SKGSpec] = {}  # content-addressed spec pool
        self._tenants: dict[str, _Tenant] = {}

    # ---- factors --------------------------------------------------------
    def register_factor(self, el: EdgeList) -> str:
        """Insert a factor into the content-addressed pool; returns digest.

        Idempotent: re-registering the same edge set returns the existing
        digest and keeps the first stored object (content addressing makes
        them interchangeable).
        """
        digest = digest_hex(factor_digest(el))
        self._factors.setdefault(digest, el)
        return digest

    def factor(self, digest: str) -> EdgeList:
        el = self._factors.get(digest)
        if el is None:
            raise GraphNotFoundError(
                f"no factor registered under digest {digest!r}", digest=digest
            )
        return el

    def factor_from_payload(self, doc: dict) -> EdgeList:
        """Build an EdgeList from a request payload.

        ``{"edges": [[u, v], ...], "n": int?, "symmetrize": bool?,
        "self_loops": bool?}`` -- the same preprocessing flags the CLI
        exposes, so a served factor equals a locally loaded one.
        """
        if not isinstance(doc, dict) or "edges" not in doc:
            raise RequestError("factor payload must be {'edges': [[u,v],...]}")
        el = EdgeList(int_ids(doc["edges"], "'edges'", 2), doc.get("n"))
        if doc.get("symmetrize"):
            el = el.symmetrized()
        if doc.get("self_loops"):
            el = el.with_full_self_loops()
        return el

    # ---- tenants / graphs ----------------------------------------------
    def ensure_tenant(self, tenant: str) -> None:
        """Create ``tenant`` if new (tenants exist by registering things)."""
        self._tenant(tenant, create=True)

    def _tenant(self, tenant: str, *, create: bool = False) -> _Tenant:
        t = self._tenants.get(tenant)
        if t is None:
            if not create:
                raise TenantNotFoundError(tenant)
            t = self._tenants[tenant] = _Tenant()
        return t

    def register_graph(
        self, tenant: str, digest_a: str, digest_b: str
    ) -> GraphHandle:
        """Register the product ``A (x) B`` for ``tenant``.

        Both factors must already be in the pool.  The lazy graph object
        is shared across tenants through the content-addressed pool.
        """
        a = self.factor(digest_a)
        b = self.factor(digest_b)
        key = f"{digest_a}x{digest_b}"
        graph = self._graphs.get(key)
        if graph is None:
            graph = self._graphs[key] = KroneckerGraph(a, b)
        handle = GraphHandle(
            key=key, digest_a=digest_a, digest_b=digest_b, graph=graph
        )
        self._tenant(tenant, create=True).graphs[key] = handle
        return handle

    def graph(self, tenant: str, key: str) -> GraphHandle:
        handle = self._tenant(tenant).graphs.get(key)
        if handle is None:
            raise GraphNotFoundError(
                f"tenant {tenant!r} has no graph {key!r}", digest=key
            )
        return handle

    def graphs_of(self, tenant: str) -> list[GraphHandle]:
        t = self._tenant(tenant)
        return [t.graphs[k] for k in sorted(t.graphs)]

    # ---- SKG specs ------------------------------------------------------
    def skg_spec_from_payload(self, doc: dict) -> SKGSpec:
        """Build an :class:`SKGSpec` from a request payload.

        ``{"seed_matrix": name, "k": int?, "skg_seed": int?,
        "noise_b": float?, "noise_seed": int?, "directed": bool?,
        "self_loops": bool?}`` -- the same knobs the CLI's
        ``--model skg`` flags expose, so a served spec digest matches
        the one a local generation run folds into its run key.
        """
        if not isinstance(doc, dict) or "seed_matrix" not in doc:
            raise RequestError(
                "skg payload must carry a 'seed_matrix' library name"
            )
        name = doc["seed_matrix"]
        if not isinstance(name, str):
            raise RequestError("'seed_matrix' must be a string")
        k = doc.get("k")
        if k is not None and (isinstance(k, bool) or not isinstance(k, int)):
            raise RequestError("'k' must be an integer")
        for field_name in ("skg_seed", "noise_seed"):
            v = doc.get(field_name, 0)
            if isinstance(v, bool) or not isinstance(v, int):
                raise RequestError(f"{field_name!r} must be an integer")
        noise_b = doc.get("noise_b", 0.0)
        if isinstance(noise_b, bool) or not isinstance(noise_b, (int, float)):
            raise RequestError("'noise_b' must be a number")
        return SKGSpec.from_library(
            name,
            k=k,
            skg_seed=int(doc.get("skg_seed", 0)),
            noise_b=float(noise_b),
            noise_seed=int(doc.get("noise_seed", 0)),
            directed=bool(doc.get("directed", False)),
            self_loops=bool(doc.get("self_loops", False)),
        )

    def register_skg(self, tenant: str, spec: SKGSpec) -> SKGHandle:
        """Register a stochastic spec for ``tenant``; returns its handle.

        Idempotent through content addressing: the digest is the same
        64-bit spec digest the distributed run keys fold, so the served
        address of an SKG instance equals its generation identity.
        """
        digest = digest_hex(spec.digest())
        pooled = self._skgs.setdefault(digest, spec)
        handle = SKGHandle(digest=digest, spec=pooled)
        self._tenant(tenant, create=True).skgs[digest] = handle
        return handle

    def skg(self, tenant: str, digest: str) -> SKGHandle:
        handle = self._tenant(tenant).skgs.get(digest)
        if handle is None:
            raise GraphNotFoundError(
                f"tenant {tenant!r} has no skg spec {digest!r}", digest=digest
            )
        return handle

    def skgs_of(self, tenant: str) -> list[SKGHandle]:
        t = self._tenant(tenant)
        return [t.skgs[d] for d in sorted(t.skgs)]

    @property
    def num_factors(self) -> int:
        return len(self._factors)

    @property
    def num_graphs(self) -> int:
        return len(self._graphs)

    @property
    def num_skg(self) -> int:
        return len(self._skgs)

    @property
    def tenants(self) -> list[str]:
        return sorted(self._tenants)
