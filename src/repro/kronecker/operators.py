"""Self-loop regimes and notation-level helpers.

The paper's theorems each assume a specific self-loop regime:

* no loops -- ``A o I_A = O_A`` (Thm. 1/2, the no-loop triangle laws);
* full loops -- ``A o I_A = I_A`` (the distance results of Section V and
  the ``(A + I) (x) (B + I)`` triangle/community results of Cor. 1/2, Thm. 6).

This module checks those regimes and provides the composite product
``(A + I_A) (x) (B + I_B)`` that most ground-truth formulas are stated
against, together with its exact edge count.
"""

from __future__ import annotations

from repro.errors import AssumptionError
from repro.graph.edgelist import EdgeList
from repro.kronecker.product import kron_product

__all__ = [
    "require_no_self_loops",
    "require_full_self_loops",
    "require_symmetric",
    "kron_with_full_loops",
]


def require_no_self_loops(el: EdgeList, name: str = "factor") -> None:
    """Raise :class:`AssumptionError` unless ``D = O`` (no self loops)."""
    if not el.has_no_self_loops():
        raise AssumptionError(
            f"{name} must have no self loops (A o I = O); found "
            f"{el.num_self_loops} loop(s)"
        )


def require_full_self_loops(el: EdgeList, name: str = "factor") -> None:
    """Raise :class:`AssumptionError` unless ``D = I`` (loops everywhere)."""
    if not el.has_full_self_loops():
        raise AssumptionError(
            f"{name} must have a self loop on every vertex (A o I = I)"
        )


def require_symmetric(el: EdgeList, name: str = "factor") -> None:
    """Raise :class:`AssumptionError` unless the edge list is symmetric."""
    if not el.is_symmetric():
        raise AssumptionError(f"{name} must be undirected (symmetric edge list)")


def kron_with_full_loops(el_a: EdgeList, el_b: EdgeList) -> EdgeList:
    """The paper's ``C = (A + I_A) (x) (B + I_B)``.

    Inputs may or may not already carry loops; loops are normalized to
    "full" on both factors before taking the product.  The result has full
    self loops by construction (``gamma(i, i)`` diagonal).
    """
    return kron_product(el_a.with_full_self_loops(), el_b.with_full_self_loops())

