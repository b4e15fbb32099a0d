"""Concrete kernels with closed-form oracles.

Three families: the Brownian-motion kernel min(s, t) on the positive
half-line, the Brownian-bridge kernel min(s, t) - s*t on the open unit
interval, and the binomial kernel sum_n C(x, n) C(y, n) on the nonnegative
integers.  The first two come with telescoping determinants and neighbor-gap
norm formulas; the binomial kernel gets an exact integer path through
Pascal-triangle factorizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .core import Kernel, PointSet, check_domain
from .errors import BoundaryIndex

__all__ = [
    "BrownianKernel",
    "BridgeKernel",
    "BinomialKernel",
    "PascalMatrix",
    "bm_delta_norm_sq",
    "bm_det",
    "bm_log_det",
    "bridge_delta_norm_sq",
    "bridge_det",
    "bridge_log_det",
    "binomial_eval",
    "binomial_basis_eval",
    "binomial_partial_norm",
    "pascal_factorization",
]


# Exact float and int labels are answered before the numbers.Real ABC check,
# which costs a registry lookup per label; bool is neither exact type.
def _is_coordinate(label) -> bool:
    if type(label) is float or type(label) is int:
        return True
    return isinstance(label, Real) and not isinstance(label, bool)


def _is_nonneg_int(label) -> bool:
    if type(label) is int:
        return label >= 0
    if type(label) is float:
        return label.is_integer() and label >= 0
    if isinstance(label, bool):
        return False
    if isinstance(label, int):
        return label >= 0
    # accept integral floats so JSON-loaded points work
    return isinstance(label, Real) and float(label).is_integer() and label >= 0


class BrownianKernel(Kernel):
    """Covariance of standard Brownian motion restricted to finite points
    s, t > 0."""

    name = "brownian"
    domain = "finite positive reals"

    def contains(self, label) -> bool:
        return _is_coordinate(label) and 0 < label < math.inf

    def __call__(self, x, y) -> float:
        return float(min(x, y))

    def gram(self, labels) -> np.ndarray:
        a = np.asarray(labels, dtype=float)
        return np.minimum.outer(a, a)


# Rows of the bridge Gram whose s t products are formed at a time.
_GRAM_ROWS = 128


class BridgeKernel(Kernel):
    """Covariance of the Brownian bridge pinned at 0 and 1: min(s,t) - s t."""

    name = "bridge"
    domain = "open unit interval"

    def contains(self, label) -> bool:
        return _is_coordinate(label) and 0 < label < 1

    def __call__(self, x, y) -> float:
        return float(min(x, y) - x * y)

    def gram(self, labels) -> np.ndarray:
        a = np.asarray(labels, dtype=float)
        out = np.minimum.outer(a, a)
        for i in range(0, len(a), _GRAM_ROWS):  # no n-by-n temporary
            out[i:i + _GRAM_ROWS] -= np.multiply.outer(a[i:i + _GRAM_ROWS], a)
        return out


def binomial_eval(x: int, y: int) -> int:
    """Exact integer kernel value sum_{n=0}^{min(x,y)} C(x,n) C(y,n).

    By the Chu-Vandermonde identity the sum is C(x + y, x).
    """
    x, y = int(x), int(y)
    return math.comb(x + y, x)


def binomial_basis_eval(n: int, x: int) -> int:
    """Basis function value C(x, n) for n <= x, else 0."""
    return math.comb(int(x), int(n)) if n <= x else 0


class BinomialKernel(Kernel):
    """Binomial-coefficient kernel on the nonnegative integers.

    Values are exact integers; Gram matrices assembled through the generic
    float path are their float conversions, while :meth:`exact_gram` keeps
    arbitrary precision for the exact diagnostics route.
    """

    name = "binomial"
    domain = "nonnegative integers"

    def contains(self, label) -> bool:
        return _is_nonneg_int(label)

    def __call__(self, x, y) -> float:
        return float(binomial_eval(int(x), int(y)))

    def gram(self, labels) -> np.ndarray:
        return np.array(self.exact_gram(labels), dtype=float)

    def exact_gram(self, labels):
        check_domain(self, labels)  # before int() can truncate 1.5 to 1
        pts = [int(x) for x in labels]
        out = [[0] * len(pts) for _ in pts]
        for i, x in enumerate(pts):
            for j in range(i, len(pts)):
                out[i][j] = out[j][i] = math.comb(x + pts[j], x)  # binomial_eval(x, pts[j])
        return out


def _increasing_coordinates(points, *, lower=0.0, upper=math.inf) -> tuple:
    pts = PointSet.of(points)
    coords = tuple(float(x) for x in pts)
    for x in coords:
        if not (lower < x < upper):
            raise ValueError(f"coordinate {x} outside the open interval ({lower}, {upper})")
    if any(b <= a for a, b in zip(coords, coords[1:])):
        raise ValueError("coordinates must be strictly increasing")
    return coords


def bm_delta_norm_sq(points, index: int) -> float:
    """Closed-form squared norm of the point mass at ``points[index]`` for the
    Brownian kernel on an increasing positive point set.

    The first point uses the pinned origin as its left neighbor.  The last
    point has no right neighbor, so no closed form exists for a finite
    truncation; the Gram solve is the honest value there.
    """
    x = _increasing_coordinates(points)
    n = len(x)
    if not 0 <= index < n:
        raise IndexError(f"index {index} out of range for {n} points")
    if index == n - 1:
        raise BoundaryIndex(
            f"point {x[index]} has no right neighbor; use the Gram solve for the last point"
        )
    left = x[index - 1] if index > 0 else 0.0
    return (x[index + 1] - left) / ((x[index] - left) * (x[index + 1] - x[index]))


def bm_det(points) -> float:
    """Telescoping Gram determinant x1 (x2-x1) ... (xn - x_{n-1})."""
    x = _increasing_coordinates(points)
    out = x[0]
    for a, b in zip(x, x[1:]):
        out *= b - a
    return out


def bm_log_det(points) -> float:
    """Log of the telescoping determinant, summed gap by gap so that long
    products neither overflow nor underflow."""
    x = _increasing_coordinates(points)
    return math.log(x[0]) + sum(math.log(b - a) for a, b in zip(x, x[1:]))


def bridge_delta_norm_sq(points, index: int) -> float:
    """Neighbor-gap norm for the bridge kernel, with the pinned endpoints 0
    and 1 serving as virtual neighbors at the two ends."""
    x = _increasing_coordinates(points, lower=0.0, upper=1.0)
    n = len(x)
    if not 0 <= index < n:
        raise IndexError(f"index {index} out of range for {n} points")
    left = x[index - 1] if index > 0 else 0.0
    right = x[index + 1] if index < n - 1 else 1.0
    return (right - left) / ((x[index] - left) * (right - x[index]))


def bridge_det(points) -> float:
    """Telescoping bridge determinant x1 (x2-x1) ... (xn-x_{n-1}) (1-xn)."""
    x = _increasing_coordinates(points, lower=0.0, upper=1.0)
    out = x[0]
    for a, b in zip(x, x[1:]):
        out *= b - a
    return out * (1.0 - x[-1])


def bridge_log_det(points) -> float:
    x = _increasing_coordinates(points, lower=0.0, upper=1.0)
    return (
        math.log(x[0])
        + sum(math.log(b - a) for a, b in zip(x, x[1:]))
        + math.log(1.0 - x[-1])
    )


@dataclass(frozen=True)
class PascalMatrix:
    """Lower-triangular truncated Pascal triangle with exact integer entries.

    ``rows[x][y] = C(x, y)`` for ``y <= x <= degree`` and 0 above the
    diagonal.  The inverse carries the alternating sign pattern
    ``(-1)^(x-y) C(x, y)`` and is exact as well.
    """

    degree: int
    rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        size = self.degree + 1
        rows = tuple(
            tuple(math.comb(x, y) if y <= x else 0 for y in range(size))
            for x in range(size)
        )
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return self.degree + 1

    def entry(self, x: int, y: int) -> int:
        return self.rows[x][y]

    def inverse_rows(self) -> tuple:
        size = self.size
        return tuple(
            tuple((-1) ** (x - y) * math.comb(x, y) if y <= x else 0 for y in range(size))
            for x in range(size)
        )

    def gram(self) -> list[list[int]]:
        """L L^t, computed entry by entry in exact integers."""
        size = self.size
        out = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                v = sum(self.rows[i][k] * self.rows[j][k] for k in range(min(i, j) + 1))
                out[i][j] = v
                out[j][i] = v
        return out


def pascal_factorization(n: int) -> tuple[PascalMatrix, list[list[int]]]:
    """The Pascal factor L and the exact binomial Gram matrix K_n = L L^t
    over {0, ..., n}."""
    lower = PascalMatrix(n)
    return lower, lower.gram()


def binomial_partial_norm(x1: int, n: int) -> int:
    """Exact diagonal entry of K_n^{-1} at x1, via forward substitution on the
    unit-triangular Pascal factor.

    Solving L w = e_{x1} gives the x1 column of L^{-1}; the diagonal entry of
    K_n^{-1} = L^{-t} L^{-1} is then the integer sum of squares of w.  Equals
    sum_{k=x1}^{n} C(k, x1)^2, which grows without bound in n.
    """
    x1, n = int(x1), int(n)
    if not 0 <= x1 <= n:
        raise ValueError("the target must satisfy 0 <= x1 <= n")
    lower = PascalMatrix(n)
    w = [0] * (n + 1)
    for i in range(n + 1):
        s = (1 if i == x1 else 0) - sum(lower.rows[i][j] * w[j] for j in range(i))
        w[i] = s  # unit diagonal: no division
    return sum(v * v for v in w)
