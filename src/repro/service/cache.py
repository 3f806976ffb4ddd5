"""LRU + content-addressed analytics result cache.

Cache keys are ``(digest_A, digest_B, property, params_key)`` -- the
content address of the *answer*, since every ground-truth property is a
pure function of the factors and parameters.  Entries are the result
pre-serialized as canonical JSON bytes, stored once and served as they
were stored: a hit is a dict lookup, a recency move and a counter
increment, whatever the payload's size.

Computation is synchronous on the server's single event loop, so two
requests for the same cold key can never overlap: the second one finds
the first one's entry.  Hits, misses and evictions are counted once, on
the cache itself; the server's ``/v1/metrics`` reports them.
"""

from __future__ import annotations

import json
from typing import Any, Callable

__all__ = ["AnalyticsCache", "cache_key"]


def cache_key(
    digest_a: str, digest_b: str, property_name: str, params_key: str
) -> tuple[str, str, str, str]:
    """The canonical cache key tuple."""
    return (digest_a, digest_b, property_name, params_key)


class AnalyticsCache:
    """Bounded LRU of serialized analytics results.

    :attr:`hits`, :attr:`misses` and :attr:`evictions` count each event
    once.
    """

    def __init__(self, maxsize: int = 512) -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self._entries: dict[tuple, bytes] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def lookup(self, key: tuple) -> bytes | None:
        """The stored payload (now the most recent entry), or ``None``."""
        payload = self._entries.pop(key, None)
        if payload is None:
            self.misses += 1
            return None
        # Re-insert to mark recency (dict preserves insertion order).
        self._entries[key] = payload
        self.hits += 1
        return payload

    def insert(self, key: tuple, payload: bytes) -> None:
        """Store a serialized result, evicting LRU entries past maxsize."""
        self._entries[key] = payload
        while len(self._entries) > self.maxsize:
            del self._entries[next(iter(self._entries))]
            self.evictions += 1

    def get_or_compute(
        self, key: tuple, compute: Callable[[], Any]
    ) -> tuple[bytes, bool]:
        """Serve ``key`` from cache, computing and caching it on a miss.

        ``compute`` runs synchronously (ground-truth formulas on
        registered factors are sub-millisecond at serving scale); its
        result is serialized to canonical JSON bytes, cached, and
        returned.  Returns ``(payload, was_hit)``.
        """
        payload = self.lookup(key)
        if payload is not None:
            return payload, True
        payload = json.dumps(
            compute(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        self.insert(key, payload)
        return payload, False
