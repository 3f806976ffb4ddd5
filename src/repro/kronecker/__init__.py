"""Nonstochastic Kronecker products: index maps, generation, lazy form, rejection."""

from repro.kronecker.indexing import alpha, beta, gamma, split, combine_edges
from repro.kronecker.product import (
    id_dtype,
    kron_edge_block,
    kron_product,
    iter_kron_product,
    product_size,
    RoutePlanB,
    plan_route_b,
    kron_edge_block_routed,
    kron_routed_full,
    iter_kron_product_routed,
)
from repro.kronecker.operators import (
    kron_with_full_loops,
    require_no_self_loops,
    require_full_self_loops,
    require_symmetric,
)
from repro.kronecker.lazy import KroneckerGraph
from repro.kronecker.power import (
    KroneckerPowerGraph,
    kron_product_many,
    multi_split,
    multi_combine,
)
from repro.kronecker.labeled import VertexLabeling, product_labeling
from repro.kronecker.rejection import (
    RejectionFamily,
    expected_vertex_triangles,
    expected_edge_triangles,
)

__all__ = [
    "alpha",
    "beta",
    "gamma",
    "split",
    "combine_edges",
    "id_dtype",
    "kron_edge_block",
    "kron_product",
    "iter_kron_product",
    "product_size",
    "RoutePlanB",
    "plan_route_b",
    "kron_edge_block_routed",
    "kron_routed_full",
    "iter_kron_product_routed",
    "kron_with_full_loops",
    "require_no_self_loops",
    "require_full_self_loops",
    "require_symmetric",
    "KroneckerGraph",
    "KroneckerPowerGraph",
    "kron_product_many",
    "multi_split",
    "multi_combine",
    "VertexLabeling",
    "product_labeling",
    "RejectionFamily",
    "expected_vertex_triangles",
    "expected_edge_triangles",
]
