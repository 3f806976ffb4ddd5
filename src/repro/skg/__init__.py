"""Stochastic Kronecker graph (SKG) tier.

The paper's machinery is *nonstochastic* Kronecker generation with exact
ground truth; this package adds the *stochastic* variant the related work
studies (Seshadhri-Pinar-Kolda "An In-Depth Analysis of Stochastic
Kronecker Graphs"; Kang et al. "Properties of stochastic Kronecker
graphs"): a 2x2 seed matrix ``theta`` of probabilities, Kronecker-powered
``k`` times, with every ordered vertex pair ``(u, v)`` kept independently
with probability

.. math::

    P[u \\to v] = \\prod_{\\ell=0}^{k-1}
        \\theta[\\mathrm{bit}_\\ell(u), \\mathrm{bit}_\\ell(v)].

Sampling costs time proportional to the edges emitted, not to the
``4**k`` pairs: pairs sharing one probability are sampled by geometric
skips ("grass-hopping", :mod:`repro.skg.sample`).  Instead of a mutable
RNG stream, every skip stream is a pure splitmix64 function of the spec
(:mod:`repro.util.hashing`), so a sample is bit-identical across
backends, world sizes, retries, chunk sizes, and elastic resume.  The
distributed generator takes a spec as its source, in place of a factor
pair, and runs the sampler as the round source of its one rank program;
routing, exchange, storage and the supervisor are the exact tier's.

Modules
-------
:mod:`repro.skg.seeds`
    fitted 2x2 seed-matrix library (facebook, polblogs, ...) + validation.
:mod:`repro.skg.model`
    :class:`SKGSpec` (also a generation source) and vectorized per-edge /
    per-block probabilities.
:mod:`repro.skg.sample`
    the grass-hopping sampler, and the candidate-filter form of the law.
:mod:`repro.skg.noisy`
    noisy-SKG per-level perturbation repairing degree oscillation.
:mod:`repro.skg.expected`
    closed-form expected properties (the ``groundtruth`` analogue).
:mod:`repro.skg.distributed`
    the in-memory driver over the SPMD runtime (and the candidate-space
    factors the performance ledger still imports).
"""

from repro.skg.expected import (
    EXPECTED_PROPERTIES,
    compute_expected_property,
    expected_degree_histogram,
    expected_degrees,
    expected_edge_rows,
    expected_isolated_count,
    expected_properties,
    expected_triangles,
    expected_undirected_edges,
)
from repro.skg.model import SKGSpec, edge_probabilities, probability_matrix
from repro.skg.noisy import max_noise, noisy_level_matrices
from repro.skg.sample import SKGAcceptor, skg_accept_mask, skg_sample_edges
from repro.skg.seeds import (
    SEED_LIBRARY,
    SeedMatrix,
    fitted_k,
    get_seed_matrix,
    list_seed_matrices,
)
from repro.skg.distributed import (
    generate_skg_distributed,
    skg_candidate_factors,
)

__all__ = [
    "SEED_LIBRARY",
    "SeedMatrix",
    "fitted_k",
    "get_seed_matrix",
    "list_seed_matrices",
    "SKGSpec",
    "edge_probabilities",
    "probability_matrix",
    "SKGAcceptor",
    "skg_accept_mask",
    "skg_sample_edges",
    "max_noise",
    "noisy_level_matrices",
    "EXPECTED_PROPERTIES",
    "expected_properties",
    "compute_expected_property",
    "expected_edge_rows",
    "expected_undirected_edges",
    "expected_degrees",
    "expected_degree_histogram",
    "expected_isolated_count",
    "expected_triangles",
    "skg_candidate_factors",
    "generate_skg_distributed",
]
