"""Noisy-SKG correction (Seshadhri-Pinar-Kolda).

Plain SKG degree distributions *oscillate*: the expected degree
histogram of a fitted model shows large periodic dips absent from real
heavy-tailed networks.  The SPK fix perturbs the seed matrix
independently per Kronecker level -- draw ``mu_level`` uniform in
``[-b, b]`` and use

    theta_level = [ t1 - 2*mu*t1/(t1 + t4),  t2 + mu,
                    t3 + mu,                 t4 - 2*mu*t4/(t1 + t4) ]

which preserves the matrix sum exactly (expected edge count is
unchanged) while breaking the level symmetry that causes the
oscillation.

The amplitude bound is *non-negativity* (:func:`max_noise`): perturbed
entries may exceed 1 when the fitted ``t1`` is already near 1 (every
library matrix has ``t1 = 0.9999``), exactly as in SPK, where the
per-level matrices are proportions rather than probabilities.  Both
samplers saturate naturally -- the candidate rule ``uniform < P`` and
the grass-hopping sampler's thinning keep a pair whose product is above
1 with probability 1 -- and such pairs
are confined to the handful of lowest-id (all-zero-bit) addresses, so
the closed-form expectations in :mod:`repro.skg.expected`, which use
the unclipped products, stay accurate to well within the tolerances the
property tests assert.

To keep the determinism contract, ``mu_level`` is *not* drawn from a
mutable RNG: it is a splitmix64 function of ``(noise_seed, level)``, so
the per-level matrices -- and hence every sample -- are a pure
function of the :class:`~repro.skg.model.SKGSpec`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError
from repro.skg.seeds import validate_theta
from repro.util.hashing import splitmix64_int

__all__ = ["max_noise", "noise_values", "noisy_level_matrices"]

_TWO64 = float(2**64)


def max_noise(theta: np.ndarray) -> float:
    """Largest amplitude ``b`` keeping every perturbed entry non-negative.

    Off-diagonal entries move by ``mu`` directly (bounded by ``t2`` and
    ``t3``); diagonal entries are scaled by ``1 -/+ 2*mu/(t1+t4)``,
    which stays non-negative for ``b <= (t1+t4)/2``.
    """
    arr = validate_theta(theta)
    t1, t2, t3, t4 = arr.ravel()
    diag_sum = t1 + t4
    if diag_sum <= 0.0:
        raise GraphFormatError(
            "noisy correction needs t1 + t4 > 0 (diagonal rescaling)"
        )
    return float(min(t2, t3, diag_sum / 2.0))


def noise_values(k: int, b: float, noise_seed: int) -> np.ndarray:
    """Deterministic per-level noise ``mu`` in ``[-b, b]``, shape ``(k,)``.

    ``mu[level]`` is ``(2*u - 1) * b`` for the splitmix64 uniform ``u``
    of ``(noise_seed, level)`` -- no RNG state, so any rank (or any
    retry) recomputes the identical values.
    """
    mus = np.empty(k, dtype=np.float64)
    base = splitmix64_int(noise_seed & 0xFFFFFFFFFFFFFFFF)
    for level in range(k):
        h = splitmix64_int(base ^ (level + 1))
        mus[level] = (2.0 * (h / _TWO64) - 1.0) * b
    return mus


def noisy_level_matrices(
    theta: np.ndarray,
    k: int,
    b: float,
    noise_seed: int,
) -> np.ndarray:
    """Per-level perturbed matrices, shape ``(k, 2, 2)``.

    Raises :class:`~repro.errors.GraphFormatError` when ``b`` exceeds
    :func:`max_noise` (some level could go negative).
    """
    arr = validate_theta(theta)
    if b < 0.0:
        raise GraphFormatError(f"noise amplitude must be >= 0, got {b}")
    limit = max_noise(arr)
    if b > limit + 1e-12:
        raise GraphFormatError(
            f"noise amplitude {b} exceeds max_noise={limit:.6f} "
            "for this seed matrix"
        )
    t1, t2, t3, t4 = arr.ravel()
    diag_sum = t1 + t4
    mus = noise_values(k, b, noise_seed)
    out = np.empty((k, 2, 2), dtype=np.float64)
    out[:, 0, 0] = t1 - 2.0 * mus * t1 / diag_sum
    out[:, 0, 1] = t2 + mus
    out[:, 1, 0] = t3 + mus
    out[:, 1, 1] = t4 - 2.0 * mus * t4 / diag_sum
    # Guard against float drift just below zero at the amplitude cap.
    np.clip(out, 0.0, None, out=out)
    return out
