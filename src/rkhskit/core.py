"""Dense Gram-matrix machinery for positive-definite kernels on countable sets.

For a kernel k and a finite ordered point set F, the squared norm of the
orthogonal projection of the indicator delta_x onto span{k(., y) : y in F}
equals the target entry of the solution of K_F zeta = delta_x.  This module
provides the pieces of that computation: kernel protocol, point sets,
symmetric assembly, a pivoted Cholesky factorization with a three-way
definiteness verdict, delta solves, dual bases, and log-determinants.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg import solve_triangular

from .errors import DomainMismatch, NotInRange, NotPositiveSemidefinite, SingularGram

# A pivot below PIVOT_RTOL times the largest diagonal entry counts as zero.
PIVOT_RTOL = 1e-12
# Residual contract for delta solves on strictly positive-definite matrices.
SOLVE_RTOL = 1e-9
# Orthogonal mass of the indicator above this means "not in the column span".
RANGE_TOL = 1e-8


def _canon_label(label):
    # numpy scalars hash like their Python counterparts but print worse;
    # lists arrive from JSON where tuple labels (tree words) have no spelling
    if isinstance(label, np.integer):
        return int(label)
    if isinstance(label, np.floating):
        return float(label)
    if isinstance(label, list):
        return tuple(_canon_label(x) for x in label)
    return label


@dataclass(frozen=True)
class PointSet:
    """Ordered finite collection of pairwise-distinct point labels.

    Labels may be real coordinates, nonnegative integers, or opaque vertex
    identifiers; equality/hash of the labels defines distinctness.  The
    closed-form Brownian/bridge helpers additionally require their real
    coordinates to be strictly increasing; that is checked there, not here.
    """

    labels: tuple
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = tuple(_canon_label(x) for x in self.labels)
        index = {}
        for i, x in enumerate(labels):
            if x in index:
                raise ValueError(f"duplicate point label {x!r}")
            index[x] = i
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_index", index)

    @classmethod
    def of(cls, labels) -> "PointSet":
        return labels if isinstance(labels, PointSet) else cls(tuple(labels))

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label):
        return _canon_label(label) in self._index

    def index(self, label) -> int:
        try:
            return self._index[_canon_label(label)]
        except KeyError:
            raise ValueError(f"point {label!r} is not in the set") from None

    @classmethod
    def canonical(cls, labels: tuple) -> "PointSet":
        """Point set over labels that are already canonical and pairwise
        distinct, built without checking either."""
        out = object.__new__(cls)
        object.__setattr__(out, "labels", labels)
        object.__setattr__(out, "_index", dict(zip(labels, range(len(labels)))))
        return out

    def prefix(self, n: int) -> "PointSet":
        return PointSet.canonical(self.labels[:n])


class Kernel:
    """A symmetric real-valued positive-definite function on pairs of points."""

    name = "kernel"
    domain = "unrestricted"

    def __call__(self, x, y) -> float:
        raise NotImplementedError

    def contains(self, label) -> bool:
        """Whether the label lies in the kernel's domain."""
        return True

    def gram(self, labels: Sequence) -> np.ndarray:
        """Dense Gram matrix; entries are filled once and mirrored so the
        result is symmetric bit for bit.

        Overrides must keep the contract that entry (i, j) depends only on
        the pair ``labels[i], labels[j]``, not on the rest of the set, so
        that every prefix's Gram is a leading block of the full one;
        filtration traces read every stage from the last stage's factor on
        that basis."""
        n = len(labels)
        out = np.empty((n, n), dtype=float)
        for i in range(n):
            xi = labels[i]
            for j in range(i, n):
                v = float(self(xi, labels[j]))
                out[i, j] = v
                out[j, i] = v
        return out

    # kernels with an exact integer arithmetic path override both of these
    is_exact = False

    def exact_gram(self, labels: Sequence):
        """Exact integer Gram matrix as nested lists, or None when the kernel
        has no exact-arithmetic path."""
        return None


class TableKernel(Kernel):
    """Kernel backed by an explicit symmetric table of values."""

    name = "table"
    domain = "explicit table"

    def __init__(self, labels, entries):
        self.points = PointSet.of(labels)
        m = np.asarray(entries, dtype=float)
        if m.shape != (len(self.points), len(self.points)):
            raise ValueError("table shape does not match the label count")
        if not np.array_equal(m, m.T):
            raise ValueError("kernel table must be symmetric")
        m = m.copy()
        m.setflags(write=False)
        self.entries = m

    def contains(self, label) -> bool:
        return label in self.points

    def __call__(self, x, y) -> float:
        return float(self.entries[self.points.index(x), self.points.index(y)])

    def gram(self, labels) -> np.ndarray:
        idx = [self.points.index(x) for x in labels]
        return self.entries[np.ix_(idx, idx)].copy()


@dataclass(frozen=True)
class StrictlyPD:
    """All pivots cleared the threshold; log-determinant from their product."""

    logdet: float


@dataclass(frozen=True)
class SemiDefinite:
    """Factorization stopped at a flat-zero tail; ``rank`` pivots succeeded."""

    rank: int


@dataclass(frozen=True)
class NotPSD:
    """A certifiably negative direction exists at point index ``witness``."""

    witness: int


PDResult = StrictlyPD | SemiDefinite | NotPSD


@dataclass(frozen=True)
class _Factor:
    perm: np.ndarray       # perm[i] = original index eliminated at step i
    lower: np.ndarray      # (n, rank) trapezoidal factor, rows in pivot order
    pivots: np.ndarray
    status: PDResult


def _pivoted_cholesky(matrix: np.ndarray) -> _Factor:
    """Outer-product Cholesky with diagonal pivoting.

    Eliminates the largest remaining diagonal entry first.  Stops early when
    no pivot exceeds the relative threshold; the trailing block then decides
    between a semidefinite verdict (block numerically zero) and an indefinite
    one (anything else, since a PSD matrix with zero diagonal has zero rows).
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    diag = np.diagonal(matrix)
    scale = max(float(diag.max()), 0.0) if n else 0.0
    tau = PIVOT_RTOL * scale
    off_tol = max(tau, PIVOT_RTOL * float(np.abs(matrix).max())) if n else 0.0
    perm = np.arange(n)
    pivots = []
    status = None
    for i in range(n):
        rem = np.diagonal(a)[i:]
        j = i + int(np.argmax(rem))
        piv = a[j, j]
        if piv <= tau:
            if piv < -tau:
                status = NotPSD(witness=int(perm[j]))
                break
            tail = a[i:, i:]
            flat = int(np.argmax(np.abs(tail)))
            p, q = divmod(flat, n - i)
            if abs(tail[p, q]) > off_tol:
                status = NotPSD(witness=int(perm[i + max(p, q)]))
            else:
                status = SemiDefinite(rank=i)
            break
        if j != i:
            a[[i, j], :] = a[[j, i], :]
            a[:, [i, j]] = a[:, [j, i]]
            perm[[i, j]] = perm[[j, i]]
        pivots.append(piv)
        r = np.sqrt(piv)
        a[i, i] = r
        if i + 1 < n:
            a[i + 1:, i] /= r
            a[i + 1:, i + 1:] -= np.outer(a[i + 1:, i], a[i + 1:, i])
        a[i, i + 1:] = 0.0
    if status is None:
        status = StrictlyPD(logdet=float(np.sum(np.log(pivots))) if n else 0.0)
    rank = len(pivots)
    lower = np.tril(a)[:, :rank]
    return _Factor(perm=perm, lower=lower, pivots=np.asarray(pivots), status=status)


class GramMatrix:
    """Symmetric kernel matrix over an ordered point set.

    Immutable after construction.  The pivoted factorization is computed
    under a lock on first use; all later reads are lock-free.
    """

    def __init__(self, points: PointSet, matrix, kernel_name: str = "kernel"):
        self.points = PointSet.of(points)
        m = np.asarray(matrix, dtype=float)
        if m.shape != (len(self.points), len(self.points)):
            raise ValueError("matrix shape does not match the point count")
        if not np.array_equal(m, m.T):
            raise ValueError("Gram matrices must be exactly symmetric")
        m = m.copy()
        m.setflags(write=False)
        self.matrix = m
        self.kernel_name = kernel_name
        self._lock = threading.Lock()
        self._factor: _Factor | None = None

    @property
    def size(self) -> int:
        return len(self.points)

    def factorization(self) -> _Factor:
        fact = self._factor
        if fact is None:
            with self._lock:
                fact = self._factor
                if fact is None:
                    fact = _pivoted_cholesky(self.matrix)
                    self._factor = fact
        return fact

    def pd(self) -> PDResult:
        return self.factorization().status

    def __repr__(self):
        return f"GramMatrix({self.kernel_name}, n={self.size})"


@dataclass(frozen=True)
class CoefficientVector:
    """Real coefficients over a point set, tagged with their role."""

    points: PointSet
    values: np.ndarray
    role: str = "delta-solution"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (len(self.points),):
            raise ValueError("coefficient length must equal the point count")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __getitem__(self, label) -> float:
        return float(self.values[self.points.index(label)])


def assemble_gram(kernel: Kernel, points) -> GramMatrix:
    """Evaluate the kernel over all pairs of the point set."""
    pts = PointSet.of(points)
    if len(pts) == 0:
        raise ValueError("point set must be nonempty")
    check_domain(kernel, pts)
    return GramMatrix(pts, kernel.gram(pts.labels), kernel_name=kernel.name)


def check_domain(kernel: Kernel, labels) -> None:
    """Raise ``DomainMismatch`` naming every label the kernel does not contain."""
    outside = [x for x in labels if not kernel.contains(x)]
    if outside:
        raise DomainMismatch(
            f"labels outside the domain of kernel {kernel.name!r} ({kernel.domain}): {outside!r}"
        )


def check_pd(gram: GramMatrix) -> PDResult:
    """Three-way definiteness verdict from the pivoted factorization."""
    return gram.pd()


def _triangular_solve(fact: _Factor, b: np.ndarray) -> np.ndarray:
    bp = b[fact.perm]
    y = solve_triangular(fact.lower, bp, lower=True)
    z = solve_triangular(fact.lower.T, y, lower=False)
    out = np.empty_like(z)
    out[fact.perm] = z
    return out


def _unpermuted_factor(fact: _Factor) -> np.ndarray:
    lo = np.empty_like(fact.lower)
    lo[fact.perm] = fact.lower
    return lo


def solve_delta(gram: GramMatrix, target) -> CoefficientVector:
    """Solve K_F zeta = delta_target.

    Strictly positive-definite matrices get a direct triangular solve with one
    step of iterative refinement.  Semidefinite matrices are solved in the
    least-squares sense over the factorization's column span; if the indicator
    has orthogonal mass above RANGE_TOL the target is declared out of range.
    """
    i = gram.points.index(target)
    fact = gram.factorization()
    status = fact.status
    n = gram.size
    b = np.zeros(n)
    b[i] = 1.0
    if isinstance(status, NotPSD):
        raise NotPositiveSemidefinite(status.witness)
    if isinstance(status, StrictlyPD):
        zeta = _triangular_solve(fact, b)
        bound = SOLVE_RTOL * (1.0 + float(np.abs(gram.matrix).max()))
        resid = b - gram.matrix @ zeta
        if float(np.abs(resid).max()) > bound:
            zeta = zeta + _triangular_solve(fact, resid)
        return CoefficientVector(gram.points, zeta, role="delta-solution")
    # semidefinite: minimal-norm least-squares through the rank-r factor
    lo = _unpermuted_factor(fact)
    m = lo.T @ lo
    ltb = lo.T @ b
    u = np.linalg.solve(m, ltb)
    projected = lo @ u
    if float(np.linalg.norm(b - projected)) > RANGE_TOL:
        raise NotInRange(
            f"delta at {target!r} is outside the numerical column span "
            f"(rank {status.rank} of {n})"
        )
    zeta = lo @ np.linalg.solve(m, u)
    return CoefficientVector(gram.points, zeta, role="delta-solution")


def projection_norm_sq(gram: GramMatrix, target) -> float:
    """(K_F^{-1} delta_target)(target): the squared norm of the projection of
    the point mass onto the kernel sections over F."""
    zeta = solve_delta(gram, target)
    return zeta[target]


def dual_basis(gram: GramMatrix) -> list[CoefficientVector]:
    """Rows of K_F^{-1}: row x holds the expansion coefficients of the vector
    dual to the section at x.  Pairing any row against K_F gives an indicator."""
    fact = gram.factorization()
    if not isinstance(fact.status, StrictlyPD):
        raise SingularGram(f"dual basis needs a strictly PD Gram matrix, got {fact.status}")
    n = gram.size
    linv = solve_triangular(fact.lower, np.eye(n), lower=True)
    kinv_p = linv.T @ linv
    kinv = np.empty_like(kinv_p)
    kinv[np.ix_(fact.perm, fact.perm)] = kinv_p
    kinv = 0.5 * (kinv + kinv.T)
    return [
        CoefficientVector(gram.points, kinv[r], role="dual-basis")
        for r in range(n)
    ]


def log_det(gram: GramMatrix) -> float:
    """Log-determinant from the factorization pivots."""
    status = gram.pd()
    if not isinstance(status, StrictlyPD):
        raise SingularGram(f"log_det needs a strictly PD Gram matrix, got {status}")
    return status.logdet
