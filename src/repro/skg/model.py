"""SKG edge-probability math.

A stochastic Kronecker graph over ``N = 2**k`` vertices keeps each
ordered pair ``(u, v)`` independently with probability

    P[u -> v] = prod_{level=0}^{k-1} theta_level[bit_level(u), bit_level(v)]

where bit ``level`` 0 is the *most significant* of the ``k`` address
bits.  With that convention the full probability matrix is exactly the
``k``-fold Kronecker power ``theta^{(x) k}`` (elementwise), which the
tests verify against ``np.kron``.

Per-level matrices are materialized as a ``(k, 2, 2)`` float64 array:
plain SKG broadcasts one ``theta``; noisy SKG (:mod:`repro.skg.noisy`)
substitutes a deterministically perturbed matrix per level.  All
probability evaluation below is vectorized over edge blocks -- the shape
the candidate filter (:func:`repro.skg.sample.skg_accept_mask`) works
on; the sampler itself needs per-class products only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GraphFormatError
from repro.skg.seeds import SeedMatrix, get_seed_matrix, validate_theta
from repro.util.hashing import mix_tokens

__all__ = [
    "SKGSpec",
    "edge_probabilities",
    "probability_matrix",
    "level_bits",
]

_MAX_K = 62  # vertex ids must fit an int64 with headroom for u*n+v style math

#: ``np.bitwise_count`` (numpy >= 2.0) enables the popcount fast path of
#: :func:`edge_probabilities`; older numpy falls back to the level loop.
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def level_bits(vertices: np.ndarray, k: int) -> np.ndarray:
    """Address bits of ``vertices``, shape ``(k, len(vertices))``.

    Row ``level`` holds bit ``level`` under the level-0-is-MSB
    convention, i.e. ``(v >> (k - 1 - level)) & 1``.
    """
    v = np.asarray(vertices, dtype=np.uint64)
    shifts = np.arange(k - 1, -1, -1, dtype=np.uint64)
    return ((v[np.newaxis, :] >> shifts[:, np.newaxis])
            & np.uint64(1)).astype(np.int64)


def edge_probabilities(
    thetas: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
) -> np.ndarray:
    """Vectorized ``P[u -> v]`` for per-level matrices ``thetas``.

    When every level shares one matrix (plain SKG -- the generation hot
    path) the product collapses to
    ``t00**c00 * t01**c01 * t10**c10 * t11**c11`` where ``c_ab`` counts
    address bits with ``(bit(u), bit(v)) == (a, b)``; those counts are
    three popcounts, so the whole block costs a handful of bitwise ops
    plus four table gathers instead of a ``k``-iteration loop.  Noisy
    SKG (distinct per-level matrices) takes the general per-level path.

    Parameters
    ----------
    thetas:
        ``(k, 2, 2)`` float64 per-level probability matrices.
    u, v:
        Equal-length endpoint id arrays in ``[0, 2**k)``.

    Returns
    -------
    numpy.ndarray
        float64 probabilities, one per edge.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    k = int(thetas.shape[0])
    uu = np.asarray(u, dtype=np.uint64)
    vv = np.asarray(v, dtype=np.uint64)
    if _HAS_BITWISE_COUNT and bool(np.all(thetas == thetas[0])):
        t00, t01, t10, t11 = thetas[0].ravel()
        low_k = np.uint64((1 << k) - 1)
        c11 = np.bitwise_count(uu & vv).astype(np.int64)
        c10 = np.bitwise_count(uu & ~vv & low_k).astype(np.int64)
        c01 = np.bitwise_count(~uu & vv & low_k).astype(np.int64)
        c00 = np.int64(k) - c11 - c10 - c01
        exps = np.arange(k + 1, dtype=np.float64)
        # 0**0 == 1 in numpy's float power, so zero entries stay exact.
        return (
            np.power(t00, exps)[c00]
            * np.power(t01, exps)[c01]
            * np.power(t10, exps)[c10]
            * np.power(t11, exps)[c11]
        )
    p = np.ones(uu.shape, dtype=np.float64)
    one = np.uint64(1)
    for level in range(k):
        shift = np.uint64(k - 1 - level)
        ub = ((uu >> shift) & one).astype(np.int64)
        vb = ((vv >> shift) & one).astype(np.int64)
        p *= thetas[level, ub, vb]
    return p


def probability_matrix(thetas: np.ndarray) -> np.ndarray:
    """Dense ``(2**k, 2**k)`` probability matrix (small ``k`` only).

    Iterated :func:`np.kron` of the per-level matrices in level order --
    the reference object the vectorized per-edge path is tested against.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    k = int(thetas.shape[0])
    if k > 16:
        raise GraphFormatError(
            f"probability_matrix is a dense reference for small k, got k={k}"
        )
    out = np.ones((1, 1), dtype=np.float64)
    for level in range(k):
        out = np.kron(out, thetas[level])
    return out


@dataclass(frozen=True)
class SKGSpec:
    """Complete, picklable description of one SKG generation run.

    A spec is a *value*: two specs with equal fields denote the same
    graph distribution and the same realized graph (sampling is a pure
    function of the spec), which is why :meth:`digest` can serve as a
    run-key token for checkpoint/resume and elastic re-sharding.

    Parameters
    ----------
    name:
        Seed-matrix name (library key or ``"custom"``).
    theta:
        Row-major ``(t00, t01, t10, t11)`` probabilities.
    k:
        Kronecker exponent; the graph has ``2**k`` vertices.
    skg_seed:
        Seed of the sampler's hash streams (and of the candidate
        filter's uniforms).
    noise_b:
        Noisy-SKG amplitude ``b`` (0 disables the correction).
    noise_seed:
        Seed of the deterministic per-level noise draws.
    directed:
        If ``False`` (default) the pair ``{u, v}`` is one Bernoulli
        trial and ``theta`` must be symmetric (enforced by symmetrizing
        at construction), so the output edge set is symmetric.
    self_loops:
        If ``False`` (default) diagonal pairs are always rejected.
    """

    name: str
    theta: tuple[float, float, float, float]
    k: int
    skg_seed: int = 0
    noise_b: float = 0.0
    noise_seed: int = 0
    directed: bool = False
    self_loops: bool = False

    def __post_init__(self) -> None:
        t = tuple(float(x) for x in self.theta)
        if len(t) != 4:
            raise GraphFormatError(
                f"theta must have 4 entries, got {len(t)}"
            )
        if not self.directed:
            off = (t[1] + t[2]) / 2.0
            t = (t[0], off, off, t[3])
        object.__setattr__(self, "theta", t)
        validate_theta(self.matrix())
        if not 1 <= self.k <= _MAX_K:
            raise GraphFormatError(
                f"Kronecker exponent k must be in [1, {_MAX_K}], got {self.k}"
            )
        if self.noise_b < 0.0:
            raise GraphFormatError(
                f"noise amplitude must be >= 0, got {self.noise_b}"
            )

    @classmethod
    def from_library(
        cls,
        name: str,
        *,
        k: int | None = None,
        skg_seed: int = 0,
        noise_b: float = 0.0,
        noise_seed: int = 0,
        directed: bool = False,
        self_loops: bool = False,
    ) -> "SKGSpec":
        """Build a spec from a :data:`~repro.skg.seeds.SEED_LIBRARY` entry.

        ``k`` defaults to the matrix's fitted exponent
        (:attr:`~repro.skg.seeds.SeedMatrix.k`).
        """
        sm: SeedMatrix = get_seed_matrix(name)
        return cls(
            name=sm.name,
            theta=sm.theta,
            k=sm.k if k is None else int(k),
            skg_seed=skg_seed,
            noise_b=noise_b,
            noise_seed=noise_seed,
            directed=directed,
            self_loops=self_loops,
        )

    @property
    def n(self) -> int:
        """Number of vertices, ``2**k``."""
        return 1 << self.k

    def matrix(self) -> np.ndarray:
        """The seed as a float64 ``(2, 2)`` array."""
        return np.asarray(self.theta, dtype=np.float64).reshape(2, 2)

    def level_matrices(self) -> np.ndarray:
        """Per-level ``(k, 2, 2)`` matrices (noisy when ``noise_b > 0``)."""
        if self.noise_b > 0.0:
            from repro.skg.noisy import noisy_level_matrices

            return noisy_level_matrices(
                self.matrix(), self.k, self.noise_b, self.noise_seed
            )
        return np.broadcast_to(
            self.matrix(), (self.k, 2, 2)
        ).astype(np.float64)

    def digest(self) -> int:
        """Order-sensitive 64-bit fingerprint of every field.

        Floats are tokenized via ``float.hex`` so the digest is exact
        (no decimal rounding ambiguity) and stable across platforms.
        """
        tokens = [
            "skg-spec-v2",
            self.name,
            *(float(x).hex() for x in self.theta),
            str(self.k),
            str(self.skg_seed),
            float(self.noise_b).hex(),
            str(self.noise_seed),
            "directed" if self.directed else "undirected",
            "loops" if self.self_loops else "noloops",
        ]
        return mix_tokens(tokens)

    def edge_probabilities(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``P[u -> v]`` for this spec's (possibly noisy) level matrices."""
        return edge_probabilities(self.level_matrices(), u, v)

    # A spec is a generation source (``repro.distributed.generator.Source``):
    # its cells are sampler-chunk ranges, one per piece.
    def key(self) -> str:
        """Run-key part: the spec digest alone."""
        return f"skg-{self.digest():016x}"

    def sampler(self):
        """This spec's :class:`~repro.skg.sample.SKGSampler`, built once per
        process; refuses ``k`` above the sampler's bound before allocating."""
        from repro.skg.sample import skg_sampler  # sample imports this module

        return skg_sampler(self)

    def partition(self, plan, nranks: int) -> list[list[tuple[int, int]]]:
        """Per rank, its rounds' ``(start, stop)`` sampler-chunk ranges."""
        return self.sampler().rounds(nranks, plan.chunk_size)

    def pieces(self, plan, cells, nparts: int, tel):
        """Each round's sample, routed like a dense chunk."""
        sampler = self.sampler()
        for start, stop in cells:
            yield plan.route(sampler.sample(start, stop), nparts, tel)

    def row_bound(self, cells) -> int:
        return self.sampler().row_bound(cells)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        noisy = f", noise_b={self.noise_b}" if self.noise_b else ""
        return (
            f"SKGSpec({self.name!r}, k={self.k}, "
            f"skg_seed={self.skg_seed}{noisy})"
        )
