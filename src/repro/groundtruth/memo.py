"""Content-addressed memoization of ground-truth analytics.

Every ground-truth formula in this package is a *pure* function of its
factor edge lists and scalar parameters, so its result is fully
determined by ``(digest(A), digest(B), params)`` -- the same content
address the checkpoint store and the query service use.  This module
provides:

:func:`factor_digest`
    a 64-bit order-insensitive-input (the edge list is canonicalized
    first) content digest of one factor, built from the project's
    splitmix64 hashing;
:class:`GroundTruthMemo`
    a bounded LRU keyed by content address, with hit/miss/eviction
    counters and an eviction-size knob;
:func:`memoized_groundtruth`
    a decorator making any factor-pair analytics function memoized both
    in-process and (through the shared memo object) by
    :mod:`repro.service`'s analytics cache.

The digest is computed once per :class:`~repro.graph.edgelist.EdgeList`
object and cached on the instance (id-keyed, so equal-but-distinct
lists simply recompute) -- repeated analytics on the same registered
factors never rehash the edges.
"""

from __future__ import annotations

import functools
import json
from typing import Any, Callable

import numpy as np

from repro.graph.edgelist import EdgeList
from repro.util.hashing import edges_digest, splitmix64

__all__ = [
    "factor_digest",
    "GroundTruthMemo",
    "MemoStats",
    "memoized_groundtruth",
    "default_memo",
    "configure_default_memo",
]


def factor_digest(el: EdgeList) -> int:
    """Content digest of a factor: canonical edges + vertex count.

    Two edge lists over the same vertex set describing the same directed
    edge multiset (after deduplication) share the digest regardless of
    row order; any differing edge, or a differing ``n``, changes it.
    """
    cached = getattr(el, "_repro_digest", None)
    if cached is not None:
        return cached
    canon = el.deduplicate()
    digest = edges_digest(
        canon.edges, seed=canon.n, salt=int(splitmix64(np.uint64(canon.n)))
    )
    # EdgeList is a frozen dataclass; stash via object.__setattr__ like
    # its own __init__ does.  Id-keyed: a distinct equal list recomputes.
    try:
        object.__setattr__(el, "_repro_digest", digest)
    except (AttributeError, TypeError):  # pragma: no cover - exotic subclass
        pass
    return digest


def params_key(params: dict[str, Any]) -> str:
    """Canonical JSON encoding of a parameter dict (sorted keys).

    The same logical parameters always produce the same key string, so
    in-process memo keys and the service's cache keys agree.
    """
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


class MemoStats:
    """Hit/miss/eviction counters of one memo (plain attributes)."""

    __slots__ = ("hits", "misses", "evictions")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict[str, int | float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class GroundTruthMemo:
    """Bounded LRU of ground-truth results keyed by content address.

    Keys are ``(fn_name, digest_a, digest_b, params_key)`` tuples; values
    are whatever the wrapped function returned.  ``maxsize`` is the
    eviction knob: least-recently-used entries fall out first.  A
    ``metrics`` registry (anything with ``add(name, value)``) may be
    attached so hits/misses also surface as telemetry counters under
    ``gtmemo.hit`` / ``gtmemo.miss`` / ``gtmemo.eviction``.
    """

    def __init__(self, maxsize: int = 256, metrics: Any | None = None) -> None:
        if maxsize < 1:
            raise ValueError(f"memo maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self.metrics = metrics
        self.stats = MemoStats()
        self._entries: dict[tuple, Any] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def clear(self) -> None:
        self._entries.clear()

    def get_or_compute(self, key: tuple, thunk: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing once on miss."""
        entries = self._entries
        if key in entries:
            # dict preserves insertion order; re-insert to mark recency.
            value = entries.pop(key)
            entries[key] = value
            self.stats.hits += 1
            if self.metrics is not None:
                self.metrics.add("gtmemo.hit")
            return value
        value = thunk()
        self.stats.misses += 1
        if self.metrics is not None:
            self.metrics.add("gtmemo.miss")
        entries[key] = value
        while len(entries) > self.maxsize:
            oldest = next(iter(entries))
            del entries[oldest]
            self.stats.evictions += 1
            if self.metrics is not None:
                self.metrics.add("gtmemo.eviction")
        return value


#: Process-wide default memo used by ``@memoized_groundtruth`` absent an
#: explicit one.  Replaceable via :func:`configure_default_memo`.
_DEFAULT_MEMO = GroundTruthMemo(maxsize=256)


def default_memo() -> GroundTruthMemo:
    """The process-wide memo shared by undecorated-``memo=`` wrappers."""
    return _DEFAULT_MEMO


def configure_default_memo(
    maxsize: int = 256, metrics: Any | None = None
) -> GroundTruthMemo:
    """Replace the process-wide memo (eviction-size knob); returns it.

    Existing ``@memoized_groundtruth`` wrappers bound to the default pick
    up the new memo on their next call.
    """
    global _DEFAULT_MEMO
    _DEFAULT_MEMO = GroundTruthMemo(maxsize=maxsize, metrics=metrics)
    return _DEFAULT_MEMO


def memoized_groundtruth(
    fn: Callable | None = None, *, memo: GroundTruthMemo | None = None
) -> Callable:
    """Memoize a factor-pair analytics function by content address.

    The wrapped function must take two :class:`EdgeList` factors as its
    first two positional arguments; remaining keyword arguments must be
    JSON-encodable (they become part of the key).  The cache key is
    ``(qualname, factor_digest(a), factor_digest(b), params_key(kwargs))``
    -- the same addressing scheme :mod:`repro.service` uses, so a result
    computed in-process is indistinguishable from one computed behind the
    server.

    Usable bare or with arguments::

        @memoized_groundtruth
        def triangles(a, b): ...

        @memoized_groundtruth(memo=GroundTruthMemo(maxsize=8))
        def closeness(a, b, *, p=0): ...

    The wrapper exposes ``cache_key(a, b, **kw)`` and ``memo`` (the live
    :class:`GroundTruthMemo`, or ``None`` meaning "the process default").
    """

    def decorate(func: Callable) -> Callable:
        bound_memo = memo

        @functools.wraps(func)
        def wrapper(a: EdgeList, b: EdgeList, **kwargs: Any) -> Any:
            live = bound_memo if bound_memo is not None else _DEFAULT_MEMO
            key = wrapper.cache_key(a, b, **kwargs)
            return live.get_or_compute(key, lambda: func(a, b, **kwargs))

        def cache_key(a: EdgeList, b: EdgeList, **kwargs: Any) -> tuple:
            return (
                func.__qualname__,
                factor_digest(a),
                factor_digest(b),
                params_key(kwargs),
            )

        wrapper.cache_key = cache_key
        wrapper.memo = bound_memo
        wrapper.__wrapped__ = func
        return wrapper

    if fn is not None:
        return decorate(fn)
    return decorate
