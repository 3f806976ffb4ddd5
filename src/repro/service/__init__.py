"""Kronecker-as-a-service: async multi-tenant ground-truth query server.

The lazy :class:`~repro.kronecker.lazy.KroneckerGraph` answers edge /
neighborhood / degree queries of the product in sublinear space, and the
:mod:`repro.groundtruth` formulas compute paper-scale analytics from the
factors alone -- together a serving workload that never materializes the
product.  This package turns that into a server:

:mod:`repro.service.protocol`
    hand-rolled HTTP/1.1 over ``asyncio`` streams (stdlib only), and the
    id-batch boundary: canonical batch bodies read from their bytes into
    ``int64`` arrays, replies rendered from result arrays;
:mod:`repro.service.registry`
    content-addressed multi-tenant factor/graph registry;
:mod:`repro.service.cache`
    LRU analytics cache of canonical JSON answer bytes keyed by
    ``(digest_A, digest_B, property, params)`` -- the only cache: each
    answer is computed once per server, from the factors alone;
:mod:`repro.service.analytics`
    the property table mapping names to ground-truth formulas;
:mod:`repro.service.server`
    the :class:`KronService` asyncio server (every request under a
    ``service.request`` telemetry span);
:mod:`repro.service.loadgen`
    seeded concurrent load-generator client + minimal HTTP client.
"""

from repro.service.cache import AnalyticsCache
from repro.service.loadgen import HTTPClient, LoadGenConfig, run_loadgen
from repro.service.registry import ServiceRegistry
from repro.service.server import KronService, ServiceConfig

__all__ = [
    "AnalyticsCache",
    "HTTPClient",
    "KronService",
    "LoadGenConfig",
    "ServiceConfig",
    "ServiceRegistry",
    "run_loadgen",
]
