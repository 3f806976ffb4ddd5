"""``bucket_edges(method="scatter")``: the tiled counting scatter.

The scatter hashes, keys, sorts and gathers one ``_TILE``-row tile at a
time; its sort key packs the owner above the tile-local row index, in
the narrowest unsigned type that holds both (16 bits up to 2 owners, 32
up to 2**17, 64 past that).  Its buckets must be the stable argsort's,
row for row, at every tile edge, for every key width, in both id dtypes
and under both storage schemes -- and they must stay views into one
backing array.
"""

import numpy as np
import pytest

from repro.distributed.shuffle import bucket_edges, counting_scatter
from repro.util import hashing

TILE = hashing._TILE
#: Empty, one row, and both sides of one and of three tile edges.
LENGTHS = [0, 1, TILE - 1, TILE, TILE + 1, 3 * TILE + 17]
#: One owner, small worlds, and the worlds of the old 1- and 2-byte keys.
NPARTS = [1, 2, 3, 7, 256, 257, 70000]
N = 1 << 20


def edges(m, dtype):
    rng = np.random.default_rng(m)
    return rng.integers(0, N, size=(m, 2)).astype(dtype)


@pytest.mark.parametrize("scheme", ["edge_hash", "source_block"])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("nparts", NPARTS)
@pytest.mark.parametrize("m", LENGTHS)
def test_scatter_is_the_stable_argsort_row_for_row(m, nparts, dtype, scheme):
    block = edges(m, dtype)
    want = bucket_edges(block, nparts, scheme=scheme, n=N, method="argsort")
    got = bucket_edges(block, nparts, scheme=scheme, n=N, method="scatter")
    assert len(got) == len(want) == nparts
    # Same bucket lengths and the same rows in the same order, bucket by
    # bucket (one concatenation: 70,000 array compares would dominate).
    assert [len(g) for g in got] == [len(w) for w in want]
    assert {g.dtype for g in got} == {np.dtype(dtype)}
    assert np.array_equal(np.concatenate(got), np.concatenate(want))


@pytest.mark.parametrize("scheme", ["edge_hash", "source_block"])
def test_buckets_are_consecutive_slices_of_one_backing_array(scheme):
    block = edges(3 * TILE + 17, np.int32)
    buckets = bucket_edges(block, 7, scheme=scheme, n=N)
    backing = buckets[0].base
    assert backing is not None and backing.nbytes == block.nbytes
    address = backing.__array_interface__["data"][0]
    for bucket in buckets:
        assert bucket.base is backing
        assert bucket.__array_interface__["data"][0] == address
        address += bucket.nbytes
    assert address == backing.__array_interface__["data"][0] + backing.nbytes


def test_counting_scatter_across_tiles_keeps_row_order():
    # Owners given outright: a skewed world where some owners skip tiles.
    m = 3 * TILE + 17
    rows = edges(m, np.int64)
    owners = np.random.default_rng(5).integers(0, 5, m) ** 2 // 3
    got = counting_scatter(rows, owners, 9)
    for d in range(9):
        assert np.array_equal(got[d], rows[owners == d])


@pytest.mark.parametrize("tile", [1, 7, 1 << 16])
@pytest.mark.parametrize("nparts", [2, 257])
def test_any_tile_gives_the_same_buckets(tile, nparts, monkeypatch):
    # The sort key packs the tile-local row index below the owner; its
    # width follows the tile, so no tile size may move a row.
    block = edges(1 << 17 if tile > TILE else 1000, np.int32)
    want = bucket_edges(block, nparts, scheme="edge_hash", method="argsort")
    monkeypatch.setattr(hashing, "_TILE", tile)
    got = bucket_edges(block, nparts, scheme="edge_hash")
    assert [len(g) for g in got] == [len(w) for w in want]
    assert np.array_equal(np.concatenate(got), np.concatenate(want))


def test_a_world_past_2_17_takes_a_64_bit_key():
    block = edges(TILE + 1, np.int32)
    nparts = (1 << 17) + 3
    want = bucket_edges(block, nparts, scheme="edge_hash", method="argsort")
    got = bucket_edges(block, nparts, scheme="edge_hash")
    assert [len(g) for g in got] == [len(w) for w in want]
    assert np.array_equal(np.concatenate(got), np.concatenate(want))
