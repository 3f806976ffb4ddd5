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

Instead of drawing from a mutable RNG stream, acceptance is
*hash-thresholded*: the uniform deciding edge ``(u, v)`` is a pure
splitmix64 function of ``(skg_seed, u, v)`` (:mod:`repro.util.hashing`),
so it composes with the paper's Def. 8 rejection machinery and is
bit-identical across backends, retries, chunk sizes, and elastic resume.
The distributed generator reuses the whole SPMD hot path: candidates are
enumerated by the existing fused/pipelined product kernels and the
acceptance filter runs inside the generate span
(``generate_distributed(..., skg=spec)``).

Modules
-------
:mod:`repro.skg.seeds`
    fitted 2x2 seed-matrix library (facebook, polblogs, ...) + validation.
:mod:`repro.skg.model`
    :class:`SKGSpec` and vectorized per-edge / per-block probabilities.
:mod:`repro.skg.sample`
    deterministic hash-thresholded Bernoulli acceptance.
:mod:`repro.skg.noisy`
    noisy-SKG per-level perturbation repairing degree oscillation.
:mod:`repro.skg.expected`
    closed-form expected properties (the ``groundtruth`` analogue).
:mod:`repro.skg.distributed`
    candidate factors + drivers over the SPMD runtime.
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
    generate_skg_supervised,
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
    "generate_skg_supervised",
]
