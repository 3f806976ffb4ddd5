"""Chunk arithmetic.

The Kronecker product of two edge lists has ``|E_A| * |E_B|`` edges; the
generator never materializes that product in one allocation.  This helper
centralizes the chunk arithmetic so the product code, the distributed
generator, and the shuffle all slice identically.
"""

from __future__ import annotations

__all__ = ["chunk_bounds"]


def chunk_bounds(total: int, chunk_size: int) -> list[tuple[int, int]]:
    """Return ``(start, stop)`` half-open bounds covering ``range(total)``.

    The final chunk may be short.  ``total == 0`` yields no chunks.
    """
    total = int(total)
    chunk_size = int(chunk_size)
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be > 0, got {chunk_size}")
    starts = range(0, total, chunk_size)
    return [(s, min(s + chunk_size, total)) for s in starts]
