"""SKG sampling in time proportional to the edges it emits.

With one seed matrix ``theta``, ``P[u -> v]`` depends only on the counts
``(c00, c01, c10, c11)`` of per-level bit pairs of ``(u, v)``
(Seshadhri-Pinar-Kolda; Kang et al.).  The sampler splits the ``k``
levels into a *high* half (the top ``k // 2`` levels) and a *low* half;
the *class* of a half is its four counts.  A *unit* is a (high block,
low block) rectangle: ``|H| * |L|`` pairs that all share one probability
``p(H) * p(L)``.  Each unit is sampled exactly by geometric skips
("grass-hopping", Ramani-Eikmeier-Gleich, SIAM Review 2019), so the work
is one uniform per hit plus one per unit chunk -- never one per pair.

*Blocks.*  A block is a class further split by how the half's two ids
compare (``a < b``, ``a == b``, ``a > b``).  ``u < v`` then holds for
whole units, so an undirected spec samples only the units below the
diagonal (and, with self loops, the diagonal ones) and mirrors every
off-diagonal hit; a directed spec without loops skips the diagonal
units.  No hit is drawn only to be dropped for its orientation.

*Index to pair.*  The pairs of a half live in one table, sorted by
block and built once per exponent per process (:func:`_half`).  Hit
``r`` of a unit is ``divmod(r, |L|)`` into the two blocks, and the pair
is the sum of two gathered table entries -- each entry holds its ids
already shifted into place as ``u << 32 | v``.

*Chunks and streams.*  A unit is cut into chunks of about
:data:`CHUNK_HITS` expected hits; the chunk length depends on the unit's
probability alone, so chunking never changes the sample.  The uniforms
of a chunk are :func:`repro.util.hashing.hash_pair` of
``(unit << 32 | chunk, draw)`` under ``skg_seed``: a pure function of the
spec, so any rank, retry or re-shard that samples the chunk reaches the
same hits.

*Noisy specs.*  Per-level matrices make the probability vary inside a
class.  A unit is then sampled at ``q = min(1, max_H * max_L)`` (the
largest pair probability of each block) and every hit kept when a hash
coin of the pair falls below ``p(u, v) / q``: exact Bernoulli
``min(p, 1)`` thinning, so one sampler serves both kinds of spec.

*Ranks and rounds.*  :meth:`SKGSampler.rounds` hands each rank a
contiguous range of chunks by expected rows and cuts it into rounds of at
most ``chunk_size`` expected rows (a single chunk when one alone exceeds
it), so the round count is known before anything is sampled.  These
rounds are what a spec hands the distributed generator as its source
(:class:`~repro.skg.model.SKGSpec` ``.partition`` / ``.pieces`` /
``.row_bound``).

:func:`skg_accept_mask` / :class:`SKGAcceptor` keep the candidate form of
the same law -- ``edge_uniform(u, v, skg_seed) < P[u -> v]`` over an
enumerated block -- for code that already holds candidate pairs (Def. 8
style hash thresholds); the generator no longer enumerates candidates, and
the performance ledger's candidate re-enactment is their last user.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import PartitionError
from repro.graph.edgelist import EdgeList
from repro.kronecker.product import id_dtype
from repro.skg.model import SKGSpec, edge_probabilities
from repro.util.hashing import edge_uniform, hash_pair, splitmix64_int

__all__ = [
    "SKG_MAX_K",
    "SKGAcceptor",
    "SKGSampler",
    "check_sampler_bound",
    "skg_accept_mask",
    "skg_sample_edges",
    "skg_sampler",
]

#: Largest exponent the sampler indexes: its two pair tables then hold
#: ``4**11`` entries each (32 MB apiece), and the packed ``u << 32 | v``
#: pair needs ``k < 32`` anyway.
SKG_MAX_K = 22

#: Expected hits per sampler chunk -- a constant of the sampler, so no
#: sample depends on it being chosen by a caller.  It is the granularity
#: of rank assignment and rounds: 256 keeps one chunk under 2 % of a
#: rank's share of polblogs at ``k = 11`` on four ranks.
CHUNK_HITS = 256

#: Block comparisons of a half's two ids (``np.sign(a - b) + 1``).
_LT, _EQ = 0, 1
_LOW32 = np.int64(0xFFFFFFFF)
#: Seed salt separating the noisy thinning coins from the skip streams.
_COIN_SALT = 0xC01F_5EED_7A1E_D5A1


def check_sampler_bound(k: int) -> None:
    """Raise :class:`~repro.errors.PartitionError` above :data:`SKG_MAX_K`.

    Generation fails closed here -- the sampler checks before it builds
    its tables -- while closed-form ``expected_*`` queries of the spec
    stay valid at any ``k``.
    """
    if k > SKG_MAX_K:
        raise PartitionError(
            f"SKG spec k={k} is above the sampler's bound k <= {SKG_MAX_K} "
            f"(its pair tables hold 4**(k/2) entries); closed-form "
            f"expected_* queries still serve it"
        )


def skg_accept_mask(
    spec: SKGSpec,
    u: np.ndarray,
    v: np.ndarray,
    *,
    thetas: np.ndarray | None = None,
) -> np.ndarray:
    """Boolean candidate-filter mask for pairs ``(u, v)``.

    ``edge_uniform(u, v, skg_seed) < P[u -> v]`` (canonical over
    ``{u, v}`` for undirected specs), loops dropped unless allowed.
    ``thetas`` lets callers reuse a precomputed ``spec.level_matrices()``.
    """
    uu = np.asarray(u, dtype=np.int64)
    vv = np.asarray(v, dtype=np.int64)
    if thetas is None:
        thetas = spec.level_matrices()
    p = edge_probabilities(thetas, uu, vv)
    uniform = edge_uniform(uu, vv, spec.skg_seed, directed=spec.directed)
    mask = uniform < p
    if not spec.self_loops:
        mask &= uu != vv
    return mask


class SKGAcceptor:
    """Reusable candidate filter with accepted/rejected counters.

    Binds one :class:`~repro.skg.model.SKGSpec`, caches its per-level
    matrices, and counts the candidates it has seen.  It filters blocks a
    caller already enumerated; the generator samples with
    :class:`SKGSampler` instead.
    """

    __slots__ = ("spec", "_thetas", "accepted", "rejected")

    def __init__(self, spec: SKGSpec) -> None:
        self.spec = spec
        self._thetas = spec.level_matrices()
        self.accepted = 0
        self.rejected = 0

    def mask(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Acceptance mask for one candidate block, updating counters."""
        m = skg_accept_mask(self.spec, u, v, thetas=self._thetas)
        kept = int(np.count_nonzero(m))
        self.accepted += kept
        self.rejected += m.size - kept
        return m

    def filter(
        self, u: np.ndarray, v: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return only the accepted ``(u, v)`` pairs of one block."""
        m = self.mask(u, v)
        return u[m], v[m]

    def filter_edges(self, edges: np.ndarray) -> np.ndarray:
        """Filter an ``(m, 2)`` edge block to its accepted rows."""
        if len(edges) == 0:
            return edges
        return edges[self.mask(edges[:, 0], edges[:, 1])]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SKGAcceptor({self.spec!r}, accepted={self.accepted}, "
            f"rejected={self.rejected})"
        )


# --------------------------------------------------------------------- #
# pair tables
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class _Half:
    """Every ``(a, b)`` id pair of one half, grouped into blocks.

    ``pairs`` holds ``(a << shift) << 32 | (b << shift)`` sorted by
    block, so a high and a low entry add up to ``u << 32 | v``.  Block
    ``i`` is ``pairs[start[i] : start[i] + size[i]]``; its bit-pair counts
    are ``counts[i]`` (``c00, c01, c10, c11``) and ``cmp[i]`` says how
    ``a`` compares with ``b``.
    """

    bits: int
    shift: int
    pairs: np.ndarray
    start: np.ndarray
    size: np.ndarray
    counts: np.ndarray
    cmp: np.ndarray


@lru_cache(maxsize=4)
def _half(bits: int, shift: int) -> _Half:
    """The block-sorted table of all ``4**bits`` pairs (cached per process).

    A pair's block key is ``3 * (c01, c10, c11)`` in base ``bits + 1``
    (``c00`` is what is left) plus its comparison, so sorting by key
    groups the blocks and decoding a block's key gives back its counts.
    """
    side = 1 << bits
    flat = np.arange(side * side, dtype=np.int64)
    a, b = flat >> np.int64(bits), flat & np.int64(side - 1)
    radix = bits + 1
    weight = 3 * np.array([0, radix * radix, radix, 1], dtype=np.int64)
    key = np.sign(a - b) + 1
    for level in range(bits):
        key += weight[((a >> level) & 1) * 2 + ((b >> level) & 1)]
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    start = np.flatnonzero(np.r_[True, sorted_key[1:] != sorted_key[:-1]])
    block, cmp = np.divmod(sorted_key[start], 3)
    c01, rest = np.divmod(block, radix * radix)
    c10, c11 = np.divmod(rest, radix)
    return _Half(
        bits=bits,
        shift=shift,
        pairs=((a[order] << shift) << 32) | (b[order] << shift),
        start=start,
        size=np.diff(np.r_[start, len(flat)]),
        counts=np.column_stack([bits - c01 - c10 - c11, c01, c10, c11]),
        cmp=cmp,
    )


def _pair_probabilities(half: _Half, thetas: np.ndarray) -> np.ndarray:
    """Per-entry probability of ``half`` under per-level ``thetas``."""
    shift = np.int64(half.shift)
    a = (half.pairs >> np.int64(32)) >> shift
    b = (half.pairs & _LOW32) >> shift
    p = np.ones(len(a), dtype=np.float64)
    for level in range(half.bits):
        shift = half.bits - 1 - level
        p *= thetas[level, (a >> shift) & 1, (b >> shift) & 1]
    return p


def _block_probabilities(half: _Half, theta: np.ndarray) -> np.ndarray:
    """``prod theta_ab ** c_ab`` per block (one matrix for every level)."""
    with np.errstate(under="ignore"):
        return np.prod(np.power(theta.ravel(), half.counts), axis=1)


def _allowed(hi: _Half, lo: _Half, spec: SKGSpec) -> np.ndarray:
    """Which (high block, low block) units the spec samples, as a grid.

    ``u < v`` iff the high ids compare ``<``, or tie and the low ones do;
    ``u == v`` iff both tie.
    """
    h, lo_cmp = hi.cmp[:, None], lo.cmp[None, :]
    diagonal = (h == _EQ) & (lo_cmp == _EQ)
    if spec.directed:
        keep = np.ones((len(hi.cmp), len(lo.cmp)), dtype=bool)
    else:
        keep = (h == _LT) | ((h == _EQ) & (lo_cmp == _LT))
        keep |= diagonal
    if not spec.self_loops:
        keep &= ~diagonal
    return keep


# --------------------------------------------------------------------- #
# grass-hopping
# --------------------------------------------------------------------- #
def _budget(mean: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """Draws that cover a stream's hits plus the final jump, most times."""
    want = np.ceil(mean + 3.0 * np.sqrt(mean) + 2.0)
    return np.minimum(want, cap).astype(np.int64)


def _grasshop(
    keys: np.ndarray, lengths: np.ndarray, q: np.ndarray, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Bernoulli(``q[i]``) hits over ``range(lengths[i])``, every stream at once.

    Draw ``d`` of stream ``i`` is the uniform of
    ``hash_pair(keys[i], d, seed)``; the gap before the next hit is
    ``floor(log(U) / log(1 - q))``, an exact geometric variate.  Every
    stream is given a budget of draws, and streams that run out before
    passing their end continue from where they stopped -- so the hits are
    a function of the key alone, not of the budget.  Returns
    ``(stream, offset)`` sorted by stream, offsets ascending within one.
    """
    streams = np.arange(len(keys))
    base = np.zeros(len(keys), dtype=np.int64)  # next free offset
    drawn = np.zeros(len(keys), dtype=np.int64)  # draws already used
    with np.errstate(divide="ignore"):  # q == 1: every draw a hit
        log_miss = np.log1p(-q)
    found_s = [np.empty(0, dtype=np.int64)]
    found_o = [np.empty(0, dtype=np.int64)]
    while len(streams):
        end = lengths[streams]
        left = end - base[streams]
        count = _budget(left * q[streams], left + 1)
        first = np.cumsum(count) - count
        owner = np.repeat(streams, count)
        draw = np.arange(len(owner), dtype=np.int64)
        draw += np.repeat(drawn[streams] - first, count)
        h = hash_pair(keys[owner], draw, seed, directed=True)
        h >>= np.uint64(11)
        h += np.uint64(1)
        gap = h * 2.0**-53  # uniform in (0, 1]
        np.log(gap, out=gap)
        gap /= log_miss[owner]
        np.floor(gap, out=gap)
        limit = lengths[owner]
        np.minimum(gap, limit, out=gap)
        # Offsets are prefix sums of the steps, restarted at each
        # stream's base.  The sums wrap in uint64; only differences
        # within one stream are read, and those stay far below 2**63.
        steps = gap.astype(np.uint64)
        steps += np.uint64(1)
        total = np.cumsum(steps)
        restart = total[first] - steps[first]
        offset = (total - np.repeat(restart, count)).view(np.int64)
        offset += np.repeat(base[streams] - 1, count)
        hit = offset < limit
        found_s.append(owner[hit])
        found_o.append(offset[hit])
        last = offset[first + count - 1]
        base[streams] = last + 1
        drawn[streams] += count
        streams = streams[last < end - 1]
    stream = np.concatenate(found_s)
    offset = np.concatenate(found_o)
    if len(found_s) > 2:
        # Continued streams came back in later passes: merge by stream.
        order = np.argsort(stream, kind="stable")
        stream, offset = stream[order], offset[order]
    return stream, offset


class SKGSampler:
    """The units, chunks and rank/round layout of one spec.

    Built once per spec per process (:func:`skg_sampler`); everything is
    a pure function of the spec.  Unit chunks ("items") are numbered in
    unit order and chunk order; :meth:`rounds` lays them out over ranks
    and :meth:`sample` draws any range of them.
    """

    def __init__(self, spec: SKGSpec) -> None:
        check_sampler_bound(spec.k)
        self.spec = spec
        k = spec.k
        high_bits = k // 2
        hi = self._hi = _half(high_bits, k - high_bits)
        lo = self._lo = _half(k - high_bits, 0)
        self._noisy = spec.noise_b > 0.0
        if self._noisy:
            thetas = spec.level_matrices()
            self._p_hi = _pair_probabilities(hi, thetas[:high_bits])
            self._p_lo = _pair_probabilities(lo, thetas[high_bits:])
            p_hi = np.maximum.reduceat(self._p_hi, hi.start)
            p_lo = np.maximum.reduceat(self._p_lo, lo.start)
        else:
            p_hi = _block_probabilities(hi, spec.matrix())
            p_lo = _block_probabilities(lo, spec.matrix())
        grid_q = np.minimum(1.0, p_hi[:, None] * p_lo[None, :])
        unit = np.flatnonzero(_allowed(hi, lo, spec) & (grid_q > 0.0))
        bh, bl = np.divmod(unit, len(lo.start))
        q = grid_q.ravel()[unit]
        pairs = hi.size[bh] * lo.size[bl]
        # Chunk length: ~CHUNK_HITS expected hits, never past the unit.
        step = np.minimum(pairs, np.maximum(1.0, np.floor(CHUNK_HITS / q)))
        step = step.astype(np.int64)
        chunks = -(-pairs // step)
        owner = np.repeat(np.arange(len(unit)), chunks)
        index = np.arange(len(owner)) - np.repeat(np.cumsum(chunks) - chunks, chunks)
        self._key = (unit[owner] << 32) | index
        self._start = index * step[owner]
        self._length = np.minimum(step[owner], pairs[owner] - self._start)
        self._q = q[owner]
        # Hit r of a unit is table rows (row0 + r // width, col0 + r % width).
        self._row0 = hi.start[bh][owner]
        self._col0 = lo.start[bl][owner]
        self._width = lo.size[bl][owner]
        # Expected rows: an undirected spec mirrors every off-diagonal hit.
        mirrored = (hi.cmp[bh] != _EQ) | (lo.cmp[bl] != _EQ)
        rows_per_hit = np.where(mirrored & (not spec.directed), 2.0, 1.0)
        weight = self._length * self._q * rows_per_hit[owner]
        self._before = np.r_[0.0, np.cumsum(weight)]

    @property
    def items(self) -> int:
        """Number of unit chunks."""
        return len(self._key)

    @property
    def expected_rows(self) -> float:
        """Expected rows emitted (exact for a plain spec, a bound if noisy)."""
        return float(self._before[-1])

    def expected(self, start: int, stop: int) -> float:
        """Expected rows of items ``[start, stop)``."""
        return float(self._before[stop] - self._before[start])

    def row_bound(self, ranges: list[tuple[int, int]]) -> int:
        """Rows the item ``ranges`` exceed with negligible probability.

        Their expected rows plus ten standard deviations (a mirrored hit
        is two rows, so the variance is at most twice the mean).
        """
        mean = sum(self.expected(start, stop) for start, stop in ranges)
        return int(mean + 10.0 * np.sqrt(2.0 * mean)) + 64

    def rank_ranges(self, nranks: int) -> list[tuple[int, int]]:
        """Contiguous item ranges of ``nranks`` ranks, by expected rows.

        Item ``i`` goes to the rank whose share holds its midpoint, so a
        rank's expected rows are off its fair share by at most one chunk.
        """
        total = self._before[-1]
        if total <= 0.0:
            return [(0, self.items)] + [(self.items, self.items)] * (nranks - 1)
        mid = (self._before[:-1] + self._before[1:]) / 2.0
        owner = np.minimum((mid * nranks / total).astype(np.int64), nranks - 1)
        bounds = np.searchsorted(owner, np.arange(nranks + 1))
        return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]

    def rounds(self, nranks: int, chunk_size: int) -> list[list[tuple[int, int]]]:
        """Per rank, its item range cut into rounds of ``<= chunk_size``
        expected rows (a round of one item when that item alone exceeds
        the bound)."""
        out = []
        for start, stop in self.rank_ranges(nranks):
            cuts = []
            while start < stop:
                end = int(np.searchsorted(
                    self._before, self._before[start] + chunk_size, side="right"
                )) - 1
                end = min(max(end, start + 1), stop)
                cuts.append((start, end))
                start = end
            out.append(cuts)
        return out

    def sample(self, start: int, stop: int) -> np.ndarray:
        """The ``(m, 2)`` edges of items ``[start, stop)``, in the id dtype
        of the spec's ``2**k`` vertices (:func:`id_dtype`).

        Hits come in item order; an undirected spec's mirrored rows follow
        them, in the same order.
        """
        window = slice(start, stop)
        item, offset = _grasshop(
            self._key[window], self._length[window], self._q[window],
            self.spec.skg_seed,
        )
        item += start
        row, col = np.divmod(self._start[item] + offset, self._width[item])
        row += self._row0[item]
        col += self._col0[item]
        packed = self._hi.pairs[row] + self._lo.pairs[col]
        u, v = packed >> np.int64(32), packed & _LOW32
        if self._noisy:
            p = self._p_hi[row] * self._p_lo[col]
            coin = edge_uniform(
                u, v, splitmix64_int(self.spec.skg_seed ^ _COIN_SALT),
                directed=True,
            )
            keep = coin * self._q[item] < p
            u, v = u[keep], v[keep]
        if not self.spec.directed:
            # Each off-diagonal hit stands for both directions.
            off = u != v
            u, v = np.r_[u, v[off]], np.r_[v, u[off]]
        out = np.empty((len(u), 2), dtype=id_dtype(self.spec.n))
        out[:, 0], out[:, 1] = u, v
        return out


@lru_cache(maxsize=8)
def skg_sampler(spec: SKGSpec) -> SKGSampler:
    """The :class:`SKGSampler` of ``spec``, built once per process."""
    return SKGSampler(spec)


def skg_sample_edges(spec: SKGSpec, *, chunk_size: int = 1 << 18) -> EdgeList:
    """Serial reference: the whole SKG sample, rows in (src, dst) order.

    The one-rank run of the generator's sampler, round by round of at
    most ``chunk_size`` expected rows, so it is the oracle the distributed
    paths are compared against; neither ``chunk_size`` nor the row order
    of a distributed run changes what it returns.
    """
    sampler = skg_sampler(spec)
    (rounds,) = sampler.rounds(1, chunk_size)
    blocks = [sampler.sample(start, stop) for start, stop in rounds]
    edges = np.vstack([np.empty((0, 2), dtype=np.int64), *blocks])
    keys = edges[:, 0] * np.int64(spec.n) + edges[:, 1]
    keys.sort()
    return EdgeList(np.column_stack(np.divmod(keys, np.int64(spec.n))), spec.n)
