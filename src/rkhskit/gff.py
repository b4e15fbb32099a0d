"""Seeded joint-Gaussian sampling with a prescribed kernel covariance.

Each draw row is a pure function of (gram, seed, row): a longer run starts
with a shorter run's draws bit for bit.  The normals come from one stream,
numpy's Philox4x64-10 (Salmon et al., SC'11) keyed by the seed with counter
0: row i of a run with ``cols`` normals per row takes words
``i * cols ... i * cols + cols - 1`` of ``Philox(key=seed).random_raw``, word
u becomes the double ``(u >> 11) * 2^-53`` (an exact 0 clipped to 1e-300),
and the inverse normal CDF turns it into a normal.  Seeds outside
``[0, 2^128)`` raise ``ValueError``.  The draws are those normals times the
covariance's pivoted factor, in fixed blocks of ``_DRAW_BLOCK`` rows on one
BLAS thread, the last block padded with zero rows: every product has one
shape, so its rounding does not follow the draw count.  The draws are
bit-exact for a bit-identical (gram, seed) only: a Gram equal within
rounding can break ties between pivots otherwise, and ``dpstrf``'s pivot
order decides the factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GramMatrix, NotPSD, PointSet, _one_blas_thread, _unpermuted_factor
from .errors import MissingNeighbor, NotPositiveSemidefinite
from .network import Network, _green_block


_DRAW_BLOCK = 256


def _normal_rows(seed: int, n: int, cols: int) -> np.ndarray:
    from scipy.special import ndtri

    seed = int(seed)
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")
    words = np.random.Philox(key=seed).random_raw(n * cols).reshape(n, cols)
    words >>= np.uint64(11)
    # below 2^53 the int64 to float conversion is exact
    u = words.view(np.int64).astype(np.float64)
    u *= 1.0 / 9007199254740992.0
    # a word below 2^11 gives exactly 0; keep the inverse CDF finite
    np.clip(u, 1e-300, None, out=u)
    return ndtri(u)


def _times_factor(z: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """The rows of ``z @ lo.T``, each by a product of one fixed shape."""
    n = len(z)
    out = np.empty((-(-n // _DRAW_BLOCK) * _DRAW_BLOCK, len(lo)))
    with _one_blas_thread:
        for start in range(0, n, _DRAW_BLOCK):
            block = z[start : start + _DRAW_BLOCK]
            if len(block) < _DRAW_BLOCK:
                block = np.vstack((block, np.zeros((_DRAW_BLOCK - len(block), z.shape[1]))))
            np.dot(block, lo.T, out=out[start : start + _DRAW_BLOCK])
    return out[:n]


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
    the truncated pivoted factor.  Row i of the draws depends only on (gram,
    seed, i), bit for bit, whatever ``n`` and the BLAS thread count: the
    factor and the products run on one thread, and every product has one
    shape.
    """
    if n < 1:
        raise ValueError("need at least one draw")
    fact = gram.factorization()
    if isinstance(fact.status, NotPSD):
        raise NotPositiveSemidefinite(fact.status.witness)
    lo = _unpermuted_factor(fact)
    draws = _times_factor(_normal_rows(seed, n, lo.shape[1]), lo)
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
