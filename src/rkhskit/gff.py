"""Seeded joint-Gaussian sampling with a prescribed kernel covariance.

The normals behind draw i, component j are a pure function of (seed, i, j):
each draw row owns a counter-based Philox4x64-10 stream (Salmon et al.,
SC'11), consumed as uniforms and pushed through the inverse normal CDF, so a
longer run starts with the normals of a shorter one bit for bit.  The draws
are those normals times the covariance's pivoted factor, by one matrix
product whose rounding follows the draw count, so a longer run's first draws
match a shorter run's only within rounding: on a depth-6 tree's Green Gram,
rows 0-6 of 3000 draws differ from 7 draws by 6.9e-16 of max|x|.  The draws
are bit-exact for a bit-identical (gram, n, seed) only: a Gram equal within
rounding can break ties between pivots otherwise, and ``dpstrf``'s pivot
order decides the factor.

The stream is numpy's ``Generator(Philox(key=seed, counter=i << 64))``
computed for all rows at once: the key is ``(seed mod 2^64, seed >> 64)``,
row i draws its block k >= 1 from the counter ``(k, i, 0, 0)``, each block
gives 4 words, a row of ``cols`` uniforms keeps the first ``cols`` words, and
word u becomes the double ``(u >> 11) * 2^-53``.  Seeds outside
``[0, 2^128)`` raise ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GramMatrix, NotPSD, PointSet, _one_blas_thread, _unpermuted_factor
from .errors import MissingNeighbor, NotPositiveSemidefinite
from .network import Network, _green_block


_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_MASK64 = (1 << 64) - 1


def _mulhilo(m, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x, via 32-bit halves;
    m is a np.uint64 scalar or a uint64 array of x's shape."""
    m_lo, m_hi = m & _LO32, m >> np.uint64(32)
    x_lo, x_hi = x & _LO32, x >> np.uint64(32)
    cross = x_hi * m_lo
    mid = ((x_lo * m_lo) >> np.uint64(32)) + (cross & _LO32) + x_lo * m_hi
    hi = x_hi * m_hi + (cross >> np.uint64(32)) + (mid >> np.uint64(32))
    return hi, x * m


def _normal_rows(seed: int, n: int, cols: int) -> np.ndarray:
    from scipy.special import ndtri

    seed = int(seed)
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")
    blocks = -(-cols // 4)
    shape = (n, blocks)
    # counter words (k, i, 0, 0) for row i and block k = 1..blocks
    x0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), shape)
    x1 = np.broadcast_to(np.arange(n, dtype=np.uint64)[:, None], shape)
    x2 = x3 = np.zeros(shape, dtype=np.uint64)
    k0, k1 = seed & _MASK64, seed >> 64
    for r in range(10):
        if r:
            k0, k1 = (k0 + _PHILOX_W[0]) & _MASK64, (k1 + _PHILOX_W[1]) & _MASK64
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ np.uint64(k0), lo1, hi0 ^ x3 ^ np.uint64(k1), lo0
    words = np.stack((x0, x1, x2, x3), axis=-1).reshape(n, 4 * blocks)[:, :cols]
    u = (words >> np.uint64(11)) * (1.0 / 9007199254740992.0)
    # a word below 2^11 gives exactly 0; keep the inverse CDF finite
    np.clip(u, 1e-300, None, out=u)
    return ndtri(u)


@dataclass(frozen=True)
class GFFSampleSet:
    """Joint mean-zero Gaussian draws with covariance equal to a Gram matrix."""

    points: PointSet
    samples: np.ndarray
    seed: int
    covariance: GramMatrix

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    def column(self, label) -> np.ndarray:
        return self.samples[:, self.points.index(label)]


def sample(gram: GramMatrix, n: int, seed: int) -> GFFSampleSet:
    """Draw ``n`` joint Gaussians with covariance ``gram``.

    Rank-deficient covariances are sampled in their numerical column span via
    the truncated pivoted factor.  Identical (gram, n, seed) gives bit-exact
    identical output, whatever the BLAS thread count: the factor and the
    product run on one thread.
    """
    if n < 1:
        raise ValueError("need at least one draw")
    fact = gram.factorization()
    if isinstance(fact.status, NotPSD):
        raise NotPositiveSemidefinite(fact.status.witness)
    lo = _unpermuted_factor(fact)
    rank = lo.shape[1]
    with _one_blas_thread:
        draws = _normal_rows(seed, n, rank) @ lo.T
    return GFFSampleSet(points=gram.points, samples=draws, seed=seed, covariance=gram)


def empirical_mean(samples: GFFSampleSet) -> np.ndarray:
    return samples.samples.mean(axis=0)


def empirical_covariance(samples: GFFSampleSet) -> np.ndarray:
    """Second-moment estimate (the mean is zero by construction)."""
    x = samples.samples
    return (x.T @ x) / x.shape[0]


def covariance_standard_error(gram: GramMatrix, n: int) -> np.ndarray:
    """Entrywise standard error of the empirical covariance of n Gaussian
    draws: sqrt((K_xx K_yy + K_xy^2) / n)."""
    k = gram.matrix
    d = np.diagonal(k)
    return np.sqrt((np.outer(d, d) + k ** 2) / n)


def delta_realization(net: Network, samples: GFFSampleSet, x) -> np.ndarray:
    """Per-draw Gaussian realization of the point mass at x:
    c(x) X_x - sum over neighbors y of c_xy X_y.

    The base vertex is pinned to zero and contributes nothing.  Its variance
    converges to the point-mass energy c(x).
    """
    if x == net.base:
        raise ValueError("the base vertex is pinned to zero in the sampled field")
    if x not in samples.points:
        raise MissingNeighbor(f"vertex {x!r} is not in the sample base")
    out = net.total_conductance(x) * samples.column(x)
    for y, c in net.neighbors(x):
        if y == net.base:
            continue
        if y not in samples.points:
            raise MissingNeighbor(f"neighbor {y!r} of {x!r} is not in the sample base")
        out = out - c * samples.column(y)
    return out


@dataclass(frozen=True)
class TriangleCheck:
    holds: bool
    margin: float


def covariance_triangle_check(net: Network, x, y, z) -> TriangleCheck:
    """Deterministic covariance inequality
    k(x,z) + k(z,y) <= k(x,y) + R(o,z), checked on the solver's kernel values.

    This is the resistance-metric triangle inequality in disguise, so the
    margin is nonnegative up to solver rounding.  R(o,z) is k(z,z), and the
    base vertex enters with k(base, .) = 0, matching the pinned field.
    """
    k = _green_block(net, [net.index(a) for a in (x, y, z)])
    margin = k[0, 1] + k[2, 2] - k[0, 2] - k[2, 1]
    scale = 1.0 + abs(k[0, 1]) + abs(k[2, 2])
    return TriangleCheck(holds=bool(margin >= -1e-9 * scale), margin=float(margin))
