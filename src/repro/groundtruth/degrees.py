"""Kronecker ground truth for degrees and edge counts.

Scaling laws from the paper's Section I table:

* vertices  ``n_C = n_A n_B``
* edges     ``m_C = 2 m_A m_B``                     (no self loops)
* degrees   ``d_C = d_A (x) d_B``                    (no self loops)

plus the full-self-loop forms needed by the Section IV/V/VI experiments:
with ``C = (A + I) (x) (B + I)``,

* ``d_C(p) = (d_i + 1)(d_k + 1) - 1 = d_i d_k + d_i + d_k``
* ``m_C = 2 m_A m_B + m_A n_B + n_A m_B``

All functions take factor *statistics* (vectors/counts), not product data:
this is the sublinear-storage mode of operation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AssumptionError

__all__ = [
    "degrees_no_loops",
    "degrees_full_loops",
    "edge_count_no_loops",
    "edge_count_full_loops",
    "vertex_count",
    "degree_histogram_product",
]


def vertex_count(n_a: int, n_b: int) -> int:
    """``n_C = n_A n_B``."""
    return int(n_a) * int(n_b)


def degrees_no_loops(d_a: np.ndarray, d_b: np.ndarray) -> np.ndarray:
    """Degree law for loop-free factors: ``d_C = d_A (x) d_B``."""
    return np.kron(np.asarray(d_a, dtype=np.int64), np.asarray(d_b, dtype=np.int64))


def degrees_full_loops(d_a: np.ndarray, d_b: np.ndarray) -> np.ndarray:
    """Degree law for ``C = (A+I) (x) (B+I)`` with loop-free ``A, B``.

    ``d_C(p) = (d_i + 1)(d_k + 1) - 1``; the product's own self loop at
    every vertex is excluded, matching the paper's ``d``.
    """
    da = np.asarray(d_a, dtype=np.int64)
    db = np.asarray(d_b, dtype=np.int64)
    return np.kron(da + 1, db + 1) - 1


def edge_count_no_loops(m_a: int, m_b: int) -> int:
    """Edge law for loop-free undirected factors: ``m_C = 2 m_A m_B``."""
    return 2 * int(m_a) * int(m_b)


def edge_count_full_loops(m_a: int, n_a: int, m_b: int, n_b: int) -> int:
    """Undirected non-loop edges of ``(A+I) (x) (B+I)``.

    ``m_A``, ``m_B`` count the loop-free factors' undirected edges.  The
    product's directed rows number ``(2 m_A + n_A)(2 m_B + n_B)``, of which
    exactly ``n_A n_B`` are the product's self loops; halving the rest gives

    .. math::

        m_C = 2 m_A m_B + m_A n_B + n_A m_B.
    """
    return 2 * int(m_a) * int(m_b) + int(m_a) * int(n_b) + int(n_a) * int(m_b)


def degree_histogram_product(
    d_a: np.ndarray, d_b: np.ndarray
) -> dict[int, int]:
    """Exact degree histogram of ``A (x) B`` without forming ``d_C``.

    Composes the factor histograms: every (degree ``x`` in A, degree ``y``
    in B) pair contributes ``count_A(x) * count_B(y)`` vertices of product
    degree ``x * y``.  Cost is ``O(u_A * u_B)`` over *unique* degree values,
    so paper-scale products (where ``n_C`` is in the billions) are summarized
    from factor data alone.  Illustrates the paper's "no large prime
    degrees" observation: every key is a product of factor degrees.
    """
    da = np.asarray(d_a, dtype=np.int64)
    db = np.asarray(d_b, dtype=np.int64)
    if len(da) == 0 or len(db) == 0:
        raise AssumptionError("factor degree vectors must be non-empty")
    ua, ca = np.unique(da, return_counts=True)
    ub, cb = np.unique(db, return_counts=True)
    prod_vals = np.multiply.outer(ua, ub).ravel()
    prod_cnts = np.multiply.outer(ca, cb).ravel()
    hist: dict[int, int] = {}
    for v, c in zip(prod_vals.tolist(), prod_cnts.tolist()):
        hist[v] = hist.get(v, 0) + c
    return hist
