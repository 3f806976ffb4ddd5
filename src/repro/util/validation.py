"""Argument-validation helpers.

Ground-truth formulas are only correct under explicit hypotheses, and the
distributed code paths fail in confusing ways when fed malformed edge lists,
so public entry points validate eagerly and raise typed errors from
:mod:`repro.errors`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError

__all__ = [
    "check_square_ids",
    "check_id_block",
    "check_edge_array",
    "check_probability",
    "check_positive_int",
]


def check_positive_int(value: int, name: str) -> int:
    """Return ``value`` as ``int`` after checking it is a positive integer."""
    iv = int(value)
    if iv != value or iv <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return iv


def check_probability(value: float, name: str) -> float:
    """Return ``value`` as ``float`` after checking it lies in ``[0, 1]``."""
    fv = float(value)
    if not (0.0 <= fv <= 1.0) or np.isnan(fv):
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return fv


def check_edge_array(edges: np.ndarray, name: str = "edges") -> np.ndarray:
    """Validate and canonicalize an ``(m, 2)`` int64 edge array.

    Accepts anything convertible to an integer array of shape ``(m, 2)``;
    rejects negative ids.  Returns a C-contiguous ``int64`` view/copy.
    """
    arr = np.asarray(edges)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphFormatError(
            f"{name} must have shape (m, 2), got {arr.shape}"
        )
    if not np.issubdtype(arr.dtype, np.integer):
        if np.issubdtype(arr.dtype, np.floating) and not np.all(arr == np.floor(arr)):
            raise GraphFormatError(f"{name} contains non-integer endpoints")
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    if arr.min(initial=0) < 0:
        raise GraphFormatError(f"{name} contains negative vertex ids")
    return arr


def check_square_ids(edges: np.ndarray, n: int, name: str = "edges") -> None:
    """Check every endpoint in ``edges`` is a valid id for an ``n``-vertex graph."""
    if edges.size and int(edges.max()) >= n:
        raise GraphFormatError(
            f"{name} references vertex {int(edges.max())} but graph has n={n}"
        )


def check_id_block(edges: np.ndarray, n: int, name: str = "edges") -> None:
    """Check an ``(m, 2)`` integer block holds only ids in ``[0, n)``.

    One scan, in the block's own width -- an ``int32`` block reads half
    the bytes of its ``int64`` widening.  The block is read as the
    unsigned type of that width, where a negative id reads as ``2**31``
    or more (``2**63`` for ``int64``), so one ``max()`` below both ``n``
    and that bound is the whole check.  Only a failing block is scanned
    again, for ``min()``, to raise the messages of
    :func:`check_edge_array` and :func:`check_square_ids`.
    """
    if not edges.size:
        return
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise GraphFormatError(f"{name} must have shape (m, 2), got {edges.shape}")
    if not np.issubdtype(edges.dtype, np.integer):
        raise GraphFormatError(f"{name} must hold integer ids, not {edges.dtype}")
    unsigned = edges.view(edges.dtype.str.replace("i", "u"))
    if int(unsigned.max()) < min(n, int(np.iinfo(edges.dtype).max) + 1):
        return
    if edges.min() < 0:
        raise GraphFormatError(f"{name} contains negative vertex ids")
    check_square_ids(edges, n, name)
