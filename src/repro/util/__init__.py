"""Shared low-level utilities: hashing, validation, chunking."""

from repro.util.hashing import (
    splitmix64,
    hash_pair,
    edge_uniform,
    EdgeHasher,
)
from repro.util.validation import (
    check_square_ids,
    check_edge_array,
    check_probability,
    check_positive_int,
)
from repro.util.chunking import chunk_bounds

__all__ = [
    "splitmix64",
    "hash_pair",
    "edge_uniform",
    "EdgeHasher",
    "check_square_ids",
    "check_edge_array",
    "check_probability",
    "check_positive_int",
    "chunk_bounds",
]
