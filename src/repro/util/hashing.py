"""Deterministic, vectorized edge hashing.

The probabilistic edge-rejection scheme of the paper (Def. 8) needs a fixed
hash function ``hash(p, q) -> [0, 1)`` over edges so that every processor --
and every later re-generation of the same graph -- agrees on which edges
survive a threshold ``nu``.  We use the splitmix64 finalizer, a well-studied
64-bit mixer with full avalanche, applied to a seed-dependent combination of
the two endpoint ids.  The same hash is the ``edge_hash`` storage map
(Remark 1's 2-D scheme only balances if the map is a hash), the SKG
sampler's skip streams, and the checkpoint digests, so it has to run at
the speed of the generation kernel.

*One kernel, in tiles.*  A pair hash is ~25 elementwise passes.  Written as
whole-array expressions each pass allocates a product-sized temporary, and
the cost is the page faults of 25 fresh 14 MB arrays, not the arithmetic.
:func:`_mix` is instead the only place the splitmix rounds touch an array:
it works in place (``out=``) on a tile of ``_TILE`` rows with preallocated
scratch, so the working set -- three ``uint64`` rows, 768 KB -- stays in L2
while every pass runs over it, and the input is read and the output written
exactly once.  The tile load casts whatever integer dtype or stride it is
given, so no ``astype`` copy is made either.  Everything else in this
module (:func:`hash_pair`, :func:`splitmix64`, :func:`edge_uniform`,
:meth:`EdgeHasher.owner`, :func:`edge_fingerprint`, :func:`edges_digest`)
is a loop over those tiles, bit for bit the values of the whole-array form;
:func:`splitmix64_int` is the scalar reference the tests pin it against.

Measured on 1.73 M int64 pairs (the strided columns of one rank's share of
the ledger's ``gen_hash_2d``), ``hash_pair`` by tile size: 2^11 30.7 ms,
2^12 24.5, 2^13 22.3, 2^14 19.4, **2^15 18.6**, 2^16 19.9, 2^17 24.6,
2^18 30.1; whole-array form 58.6 ms.  Flat within 7 % from 2^14 to 2^16 --
below that the ~35 numpy calls per tile show, above it the tile leaves L2
-- hence a module constant, not a parameter.  Scalars and short inputs use
scratch of their own length; a scalar pair costs ~30 us (12-20 us as numpy
scalar arithmetic), which only the fault injector's one decision per
communication op ever pays.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = [
    "splitmix64",
    "splitmix64_int",
    "mix_tokens",
    "hash_pair",
    "edges_digest",
    "edge_fingerprint",
    "merge_fingerprints",
    "edge_uniform",
    "EdgeHasher",
]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFTS = (np.uint64(30), np.uint64(27), np.uint64(31))
_MASK64 = (1 << 64) - 1
# 2**64 as a float, for mapping uint64 -> [0, 1).
_TWO64 = float(2**64)

#: Rows hashed per tile (see the module docstring for the measured curve).
#: A constant, not a parameter: no value depends on it.
_TILE = 1 << 15


def _mix(z: np.ndarray, t: np.ndarray, w: np.ndarray | None = None) -> None:
    """The splitmix64 rounds on arrays, in place -- the one implementation.

    ``z <- splitmix64(z)`` with scratch ``t``.  Given ``w`` the pair
    combine rides along: ``z <- splitmix64(splitmix64(z) + w * GOLDEN)``,
    clobbering ``w``.  All are ``uint64`` arrays of one shape and every
    pass writes through ``out=``, so nothing is allocated.
    """
    s30, s27, s31 = _SHIFTS
    for combine in ((True, False) if w is not None else (False,)):
        z += _GOLDEN
        np.right_shift(z, s30, out=t)
        z ^= t
        z *= _MIX1
        np.right_shift(z, s27, out=t)
        z ^= t
        z *= _MIX2
        np.right_shift(z, s31, out=t)
        z ^= t
        if combine:
            w *= _GOLDEN
            z += w


def _words(x: np.ndarray | int) -> np.ndarray:
    """``x`` as an array the tile loads can cast to ``uint64``.

    Arrays pass through uncopied whatever their dtype or stride (the tile
    load casts them as ``astype`` would); scalars and sequences convert as
    ``np.asarray(x, dtype=np.uint64)`` always has.
    """
    return x if isinstance(x, np.ndarray) else np.asarray(x, dtype=np.uint64)


def _flat(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``x`` broadcast to ``shape``, as 1-D (a 1-D ``x`` of that shape as is)."""
    if x.shape != shape:
        x = np.broadcast_to(x, shape)
    return x if x.ndim == 1 else x.reshape(-1)


def _tiles(n: int, rows: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """``(start, stop, scratch[:, :stop - start])`` covering ``range(n)``.

    One ``(rows, min(n, _TILE))`` ``uint64`` scratch block serves every
    tile, so a short input pays for its own length only.
    """
    scratch = np.empty((rows, min(n, _TILE)), dtype=np.uint64)
    for start in range(0, n, _TILE):
        stop = min(start + _TILE, n)
        yield start, stop, scratch[:, : stop - start]


def _pair_tiles(
    u: np.ndarray, v: np.ndarray, seed: int, directed: bool
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
    """:func:`hash_pair` of 1-D ``u``, ``v``, one cache-resident tile at a time.

    Yields ``(start, stop, h, w, t)``: ``h`` holds the hashes of rows
    ``start:stop``; ``w`` and ``t`` are free scratch of the same length.
    All three are overwritten by the next tile.
    """
    seed = np.uint64(seed & _MASK64)
    for start, stop, (z, w, t) in _tiles(len(u), 3):
        np.copyto(z, u[start:stop], casting="unsafe")
        np.copyto(w, v[start:stop], casting="unsafe")
        if not directed:
            np.minimum(z, w, out=t)
            np.maximum(z, w, out=w)
            z, t = t, z
        z ^= seed
        _mix(z, t, w)
        yield start, stop, z, w, t


def _map_pairs(u, v, seed: int, directed: bool, dtype, store) -> np.ndarray:
    """Elementwise function of the pair hash, broadcasting like a ufunc.

    ``store(out_tile, h)`` writes one tile of the ``dtype`` result from its
    hashes ``h`` (which it may clobber).  Scalars come back as scalars.
    """
    uu, vv = _words(u), _words(v)
    shape = np.broadcast_shapes(uu.shape, vv.shape)
    uu, vv = _flat(uu, shape), _flat(vv, shape)
    out = np.empty(len(uu), dtype=dtype)
    for start, stop, h, _w, _t in _pair_tiles(uu, vv, seed, directed):
        store(out[start:stop], h)
    return out.reshape(shape)[()]


def _store_unit(out: np.ndarray, h: np.ndarray) -> None:
    """``out <- h / 2**64``: the hash as a uniform in ``[0, 1)``."""
    np.true_divide(h, _TWO64, out=out)


def splitmix64(x: np.ndarray | int) -> np.ndarray:
    """Apply the splitmix64 finalizer to ``x`` (elementwise).

    Parameters
    ----------
    x:
        Scalar or array of non-negative integers; values are taken mod 2**64.

    Returns
    -------
    numpy.ndarray
        ``uint64`` array of mixed values with the same shape as ``x``.
    """
    x = _words(x)
    flat = _flat(x, x.shape)
    out = np.empty(len(flat), dtype=np.uint64)
    for start, stop, (t,) in _tiles(len(flat), 1):
        z = out[start:stop]
        np.copyto(z, flat[start:stop], casting="unsafe")
        _mix(z, t)
    return out.reshape(x.shape)[()]


def splitmix64_int(x: int) -> int:
    """Scalar, pure-Python splitmix64 finalizer (no numpy round trip).

    Bit-identical to :func:`splitmix64` on the same input -- the reference
    the array kernel is pinned against -- and used where a cheap
    deterministic 64-bit mix of small Python integers is needed (e.g. the
    load generator's request stream, the SKG noise seeds) without paying
    array overhead.
    """
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_tokens(tokens: "list[str] | tuple[str, ...]", seed: int = 0) -> int:
    """Order-sensitive 64-bit digest of a token sequence.

    Chains :func:`splitmix64_int` over the UTF-8 bytes of each token --
    a deterministic, dependency-free fingerprint of a few short tokens
    (:meth:`repro.skg.model.SKGSpec.digest`); a pure-Python loop per
    byte, so not for bulk payloads.
    """
    h = splitmix64_int(seed)
    for token in tokens:
        for b in token.encode("utf-8"):
            h = splitmix64_int(h ^ b)
        h = splitmix64_int(h ^ len(token))
    return h


def hash_pair(
    u: np.ndarray | int,
    v: np.ndarray | int,
    seed: int = 0,
    *,
    directed: bool = False,
) -> np.ndarray:
    """Hash endpoint pairs to ``uint64``.

    For undirected use (the default) the pair is canonicalized so that
    ``hash_pair(u, v) == hash_pair(v, u)``: an undirected edge must receive a
    single hash value regardless of the direction in which it is generated.

    Parameters
    ----------
    u, v:
        Endpoint id arrays (broadcastable to a common shape).
    seed:
        Stream seed; different seeds give independent hash families.
    directed:
        If ``True``, ``(u, v)`` and ``(v, u)`` hash independently.
    """
    return _map_pairs(u, v, seed, directed, np.uint64, np.copyto)


def edges_digest(
    edges: np.ndarray, *, seed: int | None = None, salt: int = 0
) -> int:
    """Order- and shape-sensitive 64-bit digest of an edge array.

    Rows are hashed pairwise (:func:`hash_pair` under ``seed``, by default
    the row count), mixed with their positions so permutations change the
    digest, folded with uint64 wraparound addition (associative,
    vectorized), and finalized together with ``salt`` and the row count.
    A digest match therefore means the array is row for row the original.
    """
    edges = np.ascontiguousarray(edges, dtype=np.int64).reshape(-1, 2)
    m = len(edges)
    acc = 0
    for start, stop, h, w, t in _pair_tiles(
        edges[:, 0], edges[:, 1], m if seed is None else seed, True
    ):
        np.copyto(w, np.arange(start, stop, dtype=np.uint64))
        _mix(w, t)
        h ^= w
        _mix(h, t)
        acc += int(h.sum(dtype=np.uint64))
    return splitmix64_int((acc + salt + m) & _MASK64)


def edge_fingerprint(edges: np.ndarray) -> int:
    """Order-independent 64-bit fingerprint of an edge *multiset*.

    The wraparound sum of ``splitmix64(hash_pair(u, v))`` over the rows,
    plus the row count.  Any permutation of the same rows matches, and --
    because the fold is a sum -- the fingerprints of the parts of a
    partition add up to the fingerprint of the whole
    (:func:`merge_fingerprints`): ranks fold the shards they hold and
    nobody needs the union in one memory.  A sum, unlike an XOR fold, also
    sees a duplicated row (``x ^ h ^ h == x`` but ``x + 2h != x``).
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    acc = len(edges)
    for _start, _stop, h, _w, t in _pair_tiles(edges[:, 0], edges[:, 1], 0, True):
        _mix(h, t)
        acc += int(h.sum(dtype=np.uint64))
    return acc & _MASK64


def merge_fingerprints(parts) -> int:
    """:func:`edge_fingerprint` of a union from those of its disjoint parts."""
    return sum(parts) & _MASK64


def edge_uniform(
    u: np.ndarray | int,
    v: np.ndarray | int,
    seed: int = 0,
    *,
    directed: bool = False,
) -> np.ndarray:
    """Map endpoint pairs to deterministic uniforms in ``[0, 1)``.

    This is the ``hash(p, q)`` of Def. 8 in the paper: the value is a pure
    function of the edge (and ``seed``), so jointly generating the subgraph
    family ``G_{C,nu}`` for several thresholds requires hashing each edge
    once.
    """
    return _map_pairs(u, v, seed, directed, np.float64, _store_unit)


class EdgeHasher:
    """A seeded edge -> owner map (the ``edge_hash`` storage scheme).

    Binds ``seed`` and ``directed`` so the shuffle code path does not
    thread them through every call; uniforms are :func:`edge_uniform`.

    Parameters
    ----------
    seed:
        Hash stream seed.
    directed:
        Whether ``(u, v)`` and ``(v, u)`` are distinct edges.
    """

    __slots__ = ("seed", "directed")

    def __init__(self, seed: int = 0, *, directed: bool = False) -> None:
        self.seed = int(seed)
        self.directed = bool(directed)

    def owner(
        self,
        u: np.ndarray | int,
        v: np.ndarray | int,
        nparts: int,
        dtype=np.int64,
    ) -> np.ndarray:
        """Map edges to one of ``nparts`` owners: ``hash_pair % nparts``.

        The one spelling of hash -> owner.  Public owner maps (this method,
        :func:`repro.distributed.partition.owners_by_edge_hash`) return the
        default ``int64``; the counting scatter asks for its narrow
        radix-key ``dtype`` directly, so the routing path never holds a
        product-sized ``int64`` owner array.
        """
        parts = np.uint64(nparts)

        def store(out: np.ndarray, h: np.ndarray) -> None:
            np.copyto(out, np.remainder(h, parts, out=h), casting="unsafe")

        return _map_pairs(u, v, self.seed, self.directed, dtype, store)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EdgeHasher(seed={self.seed}, directed={self.directed})"
