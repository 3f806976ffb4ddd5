"""Unit tests for repro.util.hashing."""

import numpy as np
import pytest

from repro.util import hashing
from repro.util.hashing import (
    EdgeHasher,
    edge_fingerprint,
    edge_uniform,
    edges_digest,
    hash_pair,
    splitmix64,
    splitmix64_int,
)


class TestSplitmix64:
    def test_deterministic(self):
        x = np.arange(100, dtype=np.uint64)
        assert np.array_equal(splitmix64(x), splitmix64(x))

    def test_scalar_input(self):
        a = splitmix64(42)
        b = splitmix64(np.uint64(42))
        assert a == b

    def test_distinct_inputs_distinct_outputs(self):
        x = np.arange(10_000, dtype=np.uint64)
        out = splitmix64(x)
        assert len(np.unique(out)) == len(x)

    def test_avalanche_changes_output(self):
        # flipping the low bit should change roughly half the output bits
        a = splitmix64(np.uint64(12345))
        b = splitmix64(np.uint64(12344))
        diff = int(a ^ b)
        assert 16 <= bin(diff).count("1") <= 48

    def test_dtype_is_uint64(self):
        assert splitmix64(np.arange(5)).dtype == np.uint64


class TestHashPair:
    def test_undirected_symmetry(self):
        u = np.array([1, 5, 9])
        v = np.array([2, 5, 3])
        assert np.array_equal(hash_pair(u, v), hash_pair(v, u))

    def test_directed_asymmetry(self):
        h_uv = hash_pair(3, 7, directed=True)
        h_vu = hash_pair(7, 3, directed=True)
        assert h_uv != h_vu

    def test_seed_changes_values(self):
        u = np.arange(50)
        v = u + 1
        assert not np.array_equal(hash_pair(u, v, seed=0), hash_pair(u, v, seed=1))

    def test_deterministic_across_calls(self):
        assert hash_pair(10, 20) == hash_pair(10, 20)


class TestEdgeUniform:
    def test_in_unit_interval(self):
        u = np.arange(1000)
        v = (u * 7 + 3) % 1000
        x = edge_uniform(u, v)
        assert np.all(x >= 0.0) and np.all(x < 1.0)

    def test_roughly_uniform(self):
        rng = np.random.default_rng(0)
        u = rng.integers(0, 10**6, size=20_000)
        v = rng.integers(0, 10**6, size=20_000)
        x = edge_uniform(u, v)
        # mean of U[0,1) is 0.5; loose 3-sigma band
        assert abs(x.mean() - 0.5) < 0.02
        # each decile should hold ~10%
        hist, _ = np.histogram(x, bins=10, range=(0, 1))
        assert np.all(np.abs(hist / len(x) - 0.1) < 0.02)

    def test_threshold_fraction_tracks_nu(self):
        rng = np.random.default_rng(1)
        u = rng.integers(0, 10**6, size=50_000)
        v = rng.integers(0, 10**6, size=50_000)
        x = edge_uniform(u, v)
        for nu in (0.9, 0.95, 0.99):
            frac = np.mean(x <= nu)
            assert abs(frac - nu) < 0.01


class TestEdgeHasher:
    def test_owner_is_hash_pair_mod_nparts(self):
        u = np.array([1, 2, 3])
        v = np.array([4, 5, 6])
        for directed in (False, True):
            h = EdgeHasher(seed=7, directed=directed)
            want = hash_pair(u, v, 7, directed=directed) % np.uint64(5)
            assert np.array_equal(h.owner(u, v, 5), want.astype(np.int64))

    def test_owner_range(self):
        h = EdgeHasher()
        u = np.arange(500)
        v = u * 3 + 1
        owners = h.owner(u, v, 7)
        assert owners.min() >= 0 and owners.max() < 7

    def test_owner_balanced(self):
        h = EdgeHasher()
        rng = np.random.default_rng(2)
        u = rng.integers(0, 10**6, size=30_000)
        v = rng.integers(0, 10**6, size=30_000)
        counts = np.bincount(h.owner(u, v, 8), minlength=8)
        assert counts.min() > 0.8 * counts.mean()

    def test_owner_direction_independent(self):
        h = EdgeHasher()
        assert h.owner(3, 9, 5) == h.owner(9, 3, 5)

    @pytest.mark.parametrize("nparts", [1, 2, 3, 1 << 16, (1 << 32) + 15])
    def test_owner_is_the_uint64_remainder_for_any_world(self, nparts):
        # h - (h // P) * P is the remainder bit for bit, across tile edges
        # and for worlds past 2**32.
        rng = np.random.default_rng(nparts % 1000)
        u = rng.integers(0, 2**62, 2 * hashing._TILE + 5)
        v = rng.integers(0, 2**62, 2 * hashing._TILE + 5)
        want = hash_pair(u, v, 3) % np.uint64(nparts)
        got = EdgeHasher(seed=3).owner(u, v, nparts)
        assert got.dtype == np.int64
        assert np.array_equal(got, want.astype(np.int64))


# --------------------------------------------------------------------- #
# golden vectors: the values, not only their symmetries
# --------------------------------------------------------------------- #
TILE = hashing._TILE
MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
LENGTHS = (0, 1, TILE - 1, TILE, TILE + 1, 3 * TILE + 7)
SEEDS = (0, 5, 2**63 + 5, -1, 2**64 + 5)


def ref_pair(u: int, v: int, seed: int = 0, directed: bool = False) -> int:
    """``hash_pair`` of one pair on Python integers (inputs mod 2**64)."""
    u, v = u & MASK, v & MASK
    if not directed:
        u, v = min(u, v), max(u, v)
    first = splitmix64_int(u ^ (seed & MASK))
    return splitmix64_int((first + v * GOLDEN) & MASK)


def probes(n: int) -> list[int]:
    """Positions to check against the scalar reference: both ends, two
    rows either side of every tile edge, and a seeded sample of each tile
    (a stale scratch row would spoil a whole tile, not one element)."""
    near = {p + d for p in range(0, n + 1, TILE) for d in range(-2, 3)}
    rng = np.random.default_rng(n)
    sample = {
        int(i)
        for start in range(0, n, TILE)
        for i in rng.integers(start, min(start + TILE, n), 8)
    }
    return sorted(i for i in near | sample | {0, n - 1} if 0 <= i < n)


def columns(n: int, dtype=np.int64) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(1000 + n)
    hi = 2**31 - 1 if dtype == np.int32 else 2**62
    return (
        rng.integers(0, hi, n).astype(dtype),
        rng.integers(0, hi, n).astype(dtype),
    )


class TestGoldenVectors:
    """``hash_pair`` / ``splitmix64`` against the pure-Python reference.

    Owner maps, SKG edge sets and checkpoint fingerprints all hang off
    these values, so they are pinned across every tile edge.
    """

    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("directed", [False, True])
    def test_hash_pair_across_tile_edges(self, n, directed):
        u, v = columns(n)
        got = hash_pair(u, v, 5, directed=directed)
        assert got.dtype == np.uint64 and got.shape == (n,)
        for i in probes(n):
            assert int(got[i]) == ref_pair(int(u[i]), int(v[i]), 5, directed)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_splitmix64_across_tile_edges(self, n):
        x, _ = columns(n, np.uint64)
        before = x.copy()
        got = splitmix64(x)
        assert got.dtype == np.uint64 and got.shape == (n,)
        assert np.array_equal(x, before)  # never mixed in place
        for i in probes(n):
            assert int(got[i]) == splitmix64_int(int(x[i]))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("directed", [False, True])
    def test_seeds_are_taken_mod_2_64(self, seed, directed):
        n = TILE + 1
        u, v = columns(n)
        got = hash_pair(u, v, seed, directed=directed)
        for i in probes(n):
            assert int(got[i]) == ref_pair(int(u[i]), int(v[i]), seed, directed)
        if seed == 2**64 + 5:
            assert np.array_equal(got, hash_pair(u, v, 5, directed=directed))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.int32])
    def test_input_dtypes(self, dtype):
        n = TILE + 1
        u, v = columns(n, dtype)
        got = hash_pair(u, v, 5)
        mixed = splitmix64(u)
        for i in probes(n):
            assert int(got[i]) == ref_pair(int(u[i]), int(v[i]), 5)
            assert int(mixed[i]) == splitmix64_int(int(u[i]))

    def test_negative_int64_wraps_like_astype(self):
        u = np.array([-1, -2, 3], dtype=np.int64)
        v = np.array([4, -5, -6], dtype=np.int64)
        got = hash_pair(u, v, 0, directed=True)
        for i in range(3):
            assert int(got[i]) == ref_pair(int(u[i]), int(v[i]), 0, True)

    def test_strided_columns_of_a_block(self):
        n = 3 * TILE + 7
        block = np.column_stack(columns(n))
        got = hash_pair(block[:, 0], block[:, 1], 5)
        assert np.array_equal(
            got,
            hash_pair(block[:, 0].copy(), block[:, 1].copy(), 5),
        )
        for i in probes(n):
            assert int(got[i]) == ref_pair(*map(int, block[i]), 5)

    def test_scalar_with_array_broadcasts(self):
        v = np.arange(TILE + 3)
        got = hash_pair(3, v, 5, directed=True)
        assert got.shape == v.shape
        for i in probes(len(v)):
            assert int(got[i]) == ref_pair(3, i, 5, True)
        assert np.array_equal(
            hash_pair(v, np.uint64(3), 5, directed=True),
            hash_pair(v, np.full(len(v), 3), 5, directed=True),
        )

    def test_two_dimensional_inputs_keep_their_shape(self):
        u = np.arange(12).reshape(3, 4)
        v = np.arange(4)
        got = hash_pair(u, v, 1)
        assert got.shape == (3, 4)
        mixed = splitmix64(u[:, ::2])
        assert mixed.shape == (3, 2)
        uniform = edge_uniform(u, v, 1)
        assert uniform.shape == (3, 4) and uniform.dtype == np.float64
        for r in range(3):
            for c in range(4):
                ref = ref_pair(int(u[r, c]), int(v[c]), 1)
                assert int(got[r, c]) == ref
                assert uniform[r, c] == float(ref) / 2.0**64
            for c in range(2):
                assert int(mixed[r, c]) == splitmix64_int(int(u[r, 2 * c]))

    def test_scalars_come_back_as_scalars(self):
        h = hash_pair(3, 9, 5)
        assert isinstance(h, np.uint64) and int(h) == ref_pair(3, 9, 5)
        assert isinstance(splitmix64(42), np.uint64)
        x = edge_uniform(np.uint64(3), np.uint64(9), 5)
        assert isinstance(x, np.float64)
        assert x == 0.33891968235612246  # computed at the parent commit

    def test_edge_uniform_is_the_hash_over_2_64(self):
        n = TILE + 1
        u, v = columns(n)
        got = edge_uniform(u, v, 9, directed=True)
        assert np.array_equal(
            got, hash_pair(u, v, 9, directed=True).astype(np.float64) / 2.0**64
        )

    def test_owner_is_the_hash_mod_nparts_in_any_key_dtype(self):
        n = TILE + 1
        u, v = columns(n)
        hasher = EdgeHasher(seed=4)
        expect = (hash_pair(u, v, 4) % np.uint64(7)).astype(np.int64)
        wide = hasher.owner(u, v, 7)
        assert wide.dtype == np.int64 and np.array_equal(wide, expect)
        narrow = hasher.owner(u, v, 7, np.uint8)
        assert narrow.dtype == np.uint8 and np.array_equal(narrow, expect)

    def test_digests_of_a_fixed_block_match_the_parent_commit(self):
        # Hard-coded from the commit before the tile kernel: a checkpoint
        # written then must still verify now.
        i = np.arange(70001, dtype=np.int64)
        block = np.column_stack(
            [(i * 2654435761) % 1000003, (i * 40503 + 17) % 999983]
        )
        assert edge_fingerprint(block) == 0xF467BD32A95CA359
        assert edges_digest(block) == 0xCF98AAA07CB9D0A1
        assert edges_digest(block, seed=7, salt=2**63 + 11) == (
            0x465F61451895FA45
        )
        hashes = hash_pair(block[:, 0], block[:, 1], 5)
        assert int(hashes.sum(dtype=np.uint64)) == 0xC60153377294DFD8
        assert [int(h) for h in hashes[[0, 1, -1]]] == [
            0xD238525D6A9B1B8C, 0x81C79693851AB829, 0xAC7C6BB2A8DEA6B7,
        ]
        assert [int(h) for h in splitmix64(np.arange(3))] == [
            0xE220A8397B1DCDAF, 0x910A2DEC89025CC1, 0x975835DE1C9756CE,
        ]

    def test_digests_do_not_depend_on_the_tile(self, monkeypatch):
        block = np.column_stack(columns(1000))
        expect = edge_fingerprint(block), edges_digest(block)
        monkeypatch.setattr(hashing, "_TILE", 7)
        assert (edge_fingerprint(block), edges_digest(block)) == expect
