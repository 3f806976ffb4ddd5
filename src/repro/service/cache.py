"""LRU + content-addressed analytics result cache.

Cache keys are ``(digest_A, digest_B, property, params_key)`` -- the
content address of the *answer*, since every ground-truth property is a
pure function of the factors and parameters.  Entries store the result
pre-serialized as canonical JSON bytes plus an integrity digest
(:func:`repro.util.hashing.mix_tokens` of the payload); every hit
re-derives the digest, and a mismatch evicts the damaged entry and
raises :class:`~repro.errors.CacheCorruptionError` -- a retry of the
same request recomputes and repairs.

Computation is synchronous on the server's single event loop, so two
requests for the same cold key can never overlap: the second one finds
the first one's entry.  Hits, misses, evictions and corruptions are
counted once, on the cache itself; the server's ``/v1/metrics`` reports
them.
"""

from __future__ import annotations

import json
from typing import Any, Callable

from repro.errors import CacheCorruptionError
from repro.util.hashing import mix_tokens

__all__ = ["AnalyticsCache", "cache_key", "payload_digest"]


def cache_key(
    digest_a: str, digest_b: str, property_name: str, params_key: str
) -> tuple[str, str, str, str]:
    """The canonical cache key tuple."""
    return (digest_a, digest_b, property_name, params_key)


def payload_digest(payload: bytes) -> int:
    """Integrity digest of a serialized result payload."""
    return mix_tokens([payload.decode("utf-8")], seed=len(payload))


class _Entry:
    __slots__ = ("payload", "digest")

    def __init__(self, payload: bytes, digest: int) -> None:
        self.payload = payload
        self.digest = digest


class AnalyticsCache:
    """Bounded LRU of serialized analytics results.

    :attr:`hits`, :attr:`misses`, :attr:`evictions` and
    :attr:`corruptions` count each event once.
    """

    def __init__(self, maxsize: int = 512) -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self._entries: dict[tuple, _Entry] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corruptions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def lookup(self, key: tuple) -> bytes | None:
        """Integrity-checked hit, or ``None`` on miss.

        Raises :class:`CacheCorruptionError` (after evicting the entry)
        when the stored payload no longer matches its recorded digest.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if payload_digest(entry.payload) != entry.digest:
            del self._entries[key]
            self.corruptions += 1
            digest_a, digest_b, prop, params = key
            raise CacheCorruptionError(
                f"cached payload for {prop} on {digest_a}x{digest_b} failed "
                f"its integrity digest; entry evicted, retry recomputes",
                digest=f"{digest_a}x{digest_b}",
                property=prop,
                params=json.loads(params) if params else None,
            )
        # Re-insert to mark recency (dict preserves insertion order).
        del self._entries[key]
        self._entries[key] = entry
        self.hits += 1
        return entry.payload

    def insert(self, key: tuple, payload: bytes) -> None:
        """Store a serialized result, evicting LRU entries past maxsize."""
        self._entries[key] = _Entry(payload, payload_digest(payload))
        while len(self._entries) > self.maxsize:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
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
