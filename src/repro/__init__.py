"""repro: distributed nonstochastic Kronecker graph generation with ground truth.

A full reproduction of *"Distributed Kronecker Graph Generation with Ground
Truth of Many Graph Properties"* (Steil, Priest, Sanders, Pearce, La Fond,
Iwabuchi -- IPDPS Workshops 2019): the distributed generator, the Kronecker
ground-truth formulas for triangles / clustering / distance / centrality /
community structure, the hash-rejection benchmark families, and a harness
regenerating every table and figure of the paper's evaluation.

Quick start::

    from repro.graph import erdos_renyi
    from repro.kronecker import KroneckerGraph
    from repro.groundtruth import factor_triangle_stats, global_triangles_full_loops

    a = erdos_renyi(100, 0.1, seed=1)
    b = erdos_renyi(100, 0.1, seed=2)
    c = KroneckerGraph(a.with_full_self_loops(), b.with_full_self_loops())
    tau = global_triangles_full_loops(factor_triangle_stats(a), factor_triangle_stats(b))

See the subpackages:

* :mod:`repro.graph` -- edge lists, CSR adjacency, generators, datasets, I/O
* :mod:`repro.kronecker` -- index maps, products, lazy graphs, rejection
* :mod:`repro.groundtruth` -- the paper's Kronecker formulas
* :mod:`repro.analytics` -- trusted direct algorithms (validation side)
* :mod:`repro.distributed` -- communicators, partitioning, distributed generation
* :mod:`repro.validation` -- the formula-vs-direct harness: one table of
  Kronecker laws, the Section-I table among them
* :mod:`repro.experiments` -- paper tables & figures (E1-E8)
"""

from repro.errors import (
    ReproError,
    GraphFormatError,
    AssumptionError,
    PartitionError,
    CommunicatorError,
    ExperimentError,
)
from repro.graph.edgelist import EdgeList
from repro.graph.csr import CSRGraph
from repro.kronecker.lazy import KroneckerGraph
from repro.kronecker.product import kron_product
from repro.kronecker.operators import kron_with_full_loops
from repro.distributed.generator import generate_distributed
from repro.validation import validate_product, validate_algorithm

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "GraphFormatError",
    "AssumptionError",
    "PartitionError",
    "CommunicatorError",
    "ExperimentError",
    "EdgeList",
    "CSRGraph",
    "KroneckerGraph",
    "kron_product",
    "kron_with_full_loops",
    "generate_distributed",
    "validate_product",
    "validate_algorithm",
    "__version__",
]
