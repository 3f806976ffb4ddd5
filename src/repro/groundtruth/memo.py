"""Content addresses of factors and analytics parameters.

Every ground-truth formula in this package is a *pure* function of its
factor edge lists and scalar parameters, so its result is fully
determined by ``(digest(A), digest(B), params)``.  :mod:`repro.service`
caches each served answer under exactly that address.  This module
provides its two parts:

:func:`factor_digest`
    a 64-bit content digest of one factor (the edge list is
    canonicalized first, so row order does not matter), built from the
    project's splitmix64 hashing;
:func:`params_key`
    the canonical JSON string of a parameter dict.

The digest is computed once per :class:`~repro.graph.edgelist.EdgeList`
object and cached on the instance (id-keyed, so equal-but-distinct
lists simply recompute) -- repeated analytics on the same registered
factors never rehash the edges.

The module path is an interface, which is why it is still named
``memo`` although it caches nothing: the service registry imports
:func:`factor_digest` from ``repro.groundtruth.memo`` and the
performance ledger imports :func:`params_key` from it.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from repro.graph.edgelist import EdgeList
from repro.util.hashing import edges_digest, splitmix64

__all__ = ["factor_digest", "params_key"]


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
    they always address the same cached answer.
    """
    return json.dumps(params, sort_keys=True, separators=(",", ":"))
