"""Unit tests for the service registry and the analytics cache."""

import json

import pytest

import repro.util.hashing
from repro.errors import (
    GraphNotFoundError,
    RequestError,
    TenantNotFoundError,
)
from repro.graph import clique, cycle
from repro.service.cache import AnalyticsCache, cache_key
from repro.service.registry import ServiceRegistry, digest_hex


class TestRegistry:
    def test_register_factor_idempotent(self):
        reg = ServiceRegistry()
        d1 = reg.register_factor(clique(4))
        d2 = reg.register_factor(clique(4))
        assert d1 == d2
        assert reg.num_factors == 1
        assert len(d1) == 16  # 16-hex-digit content address

    def test_graphs_shared_across_tenants(self):
        reg = ServiceRegistry()
        da = reg.register_factor(clique(4))
        db = reg.register_factor(cycle(5))
        h1 = reg.register_graph("alice", da, db)
        h2 = reg.register_graph("bob", da, db)
        assert h1.key == h2.key == f"{da}x{db}"
        assert h1.graph is h2.graph  # content-addressed pool
        assert reg.num_graphs == 1
        assert reg.tenants == ["alice", "bob"]

    def test_tenant_isolation(self):
        reg = ServiceRegistry()
        da = reg.register_factor(clique(4))
        db = reg.register_factor(cycle(5))
        handle = reg.register_graph("alice", da, db)
        assert reg.graph("alice", handle.key) is not None
        with pytest.raises(TenantNotFoundError):
            reg.graph("mallory", handle.key)
        reg.ensure_tenant("bob")
        with pytest.raises(GraphNotFoundError):
            reg.graph("bob", handle.key)

    def test_unknown_factor_digest(self):
        reg = ServiceRegistry()
        with pytest.raises(GraphNotFoundError):
            reg.register_graph("alice", "0" * 16, "1" * 16)

    def test_factor_from_payload_flags(self):
        reg = ServiceRegistry()
        el = reg.factor_from_payload(
            {"edges": [[0, 1]], "n": 3, "symmetrize": True, "self_loops": True}
        )
        assert el.n == 3
        assert el.is_symmetric()
        assert el.has_full_self_loops()

    def test_factor_from_payload_rejects_garbage(self):
        reg = ServiceRegistry()
        with pytest.raises(RequestError):
            reg.factor_from_payload({"nope": 1})
        with pytest.raises(RequestError):
            reg.factor_from_payload({"edges": "not-a-list"})

    def test_summary_shape(self):
        reg = ServiceRegistry()
        da = reg.register_factor(clique(4))
        db = reg.register_factor(cycle(5))
        doc = reg.register_graph("t", da, db).summary()
        assert doc["n"] == 20
        assert doc["factor_a"] == da and doc["factor_b"] == db
        json.dumps(doc)  # JSON-ready

    def test_digest_hex_canonical(self):
        assert digest_hex(0) == "0" * 16
        assert digest_hex(2**64 - 1) == "f" * 16
        assert digest_hex(-1) == "f" * 16  # wraps to uint64


class TestAnalyticsCache:
    def test_miss_then_hit(self):
        cache = AnalyticsCache(maxsize=4)
        key = cache_key("a", "b", "triangles", "{}")
        calls = []

        p1, hit1 = cache.get_or_compute(
            key, lambda: calls.append(1) or {"tau": 6}
        )
        p2, hit2 = cache.get_or_compute(
            key, lambda: calls.append(1) or {"tau": 6}
        )
        assert calls == [1]
        assert (hit1, hit2) == (False, True)
        assert p1 == p2 and json.loads(p1) == {"tau": 6}
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction(self):
        cache = AnalyticsCache(maxsize=2)

        for i in range(4):
            cache.get_or_compute(
                cache_key("a", "b", f"p{i}", "{}"), lambda i=i: {"i": i}
            )
        assert len(cache) == 2
        assert cache.evictions == 2

    def test_hit_serves_stored_bytes_without_hashing(self, monkeypatch):
        """A hit returns the stored object itself: no per-hit hashing."""

        def refuse(x):
            raise AssertionError("the cache hashed a payload")

        monkeypatch.setattr(repro.util.hashing, "splitmix64_int", refuse)
        cache = AnalyticsCache(maxsize=4)
        key = cache_key("aaaa", "bbbb", "triangles", '{"k":1}')
        stored, was_hit = cache.get_or_compute(key, lambda: {"tau": 6})
        assert not was_hit and json.loads(stored) == {"tau": 6}
        served, was_hit = cache.get_or_compute(key, lambda: {"tau": 666})
        assert was_hit and served is stored
        assert cache.lookup(key) is stored
        assert (cache.hits, cache.misses) == (2, 1)

    def test_rejects_zero_maxsize(self):
        with pytest.raises(ValueError):
            AnalyticsCache(maxsize=0)
