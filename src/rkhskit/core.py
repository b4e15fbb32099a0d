"""Dense Gram-matrix machinery for positive-definite kernels on countable sets.

For a kernel k and a finite ordered point set F, the squared norm of the
orthogonal projection of the indicator delta_x onto span{k(., y) : y in F}
equals the target entry of the solution of K_F zeta = delta_x.  This module
provides the pieces of that computation: kernel protocol, point sets,
symmetric assembly, a pivoted Cholesky factorization with a three-way
definiteness verdict, delta solves, dual bases, and log-determinants.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

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
        that basis.  A trace factors the returned array in place when it is
        a fresh, writeable array that nothing else holds, and copies it
        first otherwise, so an override may return a Gram it keeps, or a
        read-only one, and find it unchanged."""
        n = len(labels)
        out = np.empty((n, n), dtype=float)
        for i in range(n):
            xi = labels[i]
            for j in range(i, n):
                v = float(self(xi, labels[j]))
                out[i, j] = v
                out[j, i] = v
        return out

    def exact_gram(self, labels: Sequence):
        """Exact integer Gram matrix as nested lists, or None when the kernel
        has no exact-arithmetic path: the one declaration of that path.  An
        override raises ``DomainMismatch`` for labels ``contains`` rejects."""
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
        if not np.isfinite(m).all():
            raise ValueError("kernel table entries must be finite")
        if not _exactly_symmetric(m):
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
        return self.entries[np.ix_(idx, idx)]   # a fresh array: fancy indexing copies


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
    upper: np.ndarray      # (rank, n) trapezoidal factor U, columns in pivot order
    status: PDResult


class _OneBlasThread(contextlib.ContextDecorator):
    """Every loaded OpenBLAS on one thread while any call holds the pin.

    The last bits of OpenBLAS's ``dpotrf``, ``dtrsm`` and ``dgemm`` follow how
    the work is split between threads, and an idle worker spins after each
    call; one thread gives the same bits under any ``OPENBLAS_NUM_THREADS``
    or core count, for less CPU.  On first use ``scipy.linalg`` is imported,
    so scipy's OpenBLAS is loaded beside numpy's, and the thread controls of
    each OpenBLAS mapped into the process are looked up once.  Without
    ``/proc/self/maps`` or without OpenBLAS (MKL, Accelerate) there are no
    controls and the pin does nothing.

    The count is process-wide: the first caller to enter saves each
    library's count and sets it to 1, and the last to leave restores them,
    so nested and concurrent calls never restore early, and BLAS calls
    elsewhere in the process run on one thread meanwhile.
    ``openblas_set_num_threads_local`` is not used: pthreads builds set the
    global count through it too, and older wheels lack it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = []
        self._controls = None   # [(get, set)] per library, found on first use

    @staticmethod
    def _find_controls() -> list:
        import ctypes

        import scipy.linalg  # noqa: F401

        try:
            with open("/proc/self/maps") as fh:
                paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
        except OSError:
            return []
        controls = []
        for path in paths:
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for prefix, suffix in itertools.product(("scipy_openblas", "openblas"), ("64_", "")):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    controls.append((get, put))
                    break
        return controls

    def __enter__(self):
        with self._lock:
            if self._controls is None:
                self._controls = self._find_controls()
            if self._depth == 0:
                self._saved = [get() for get, _ in self._controls]
                for _, put in self._controls:
                    put(1)
            self._depth += 1
        return self

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for (_, put), count in zip(self._controls, self._saved):
                    put(count)
        return False


_one_blas_thread = _OneBlasThread()


@_one_blas_thread
def _pivoted_cholesky(matrix: np.ndarray) -> _Factor:
    """Cholesky with diagonal pivoting, ``U^T U = K[perm][:, perm]``, by one
    LAPACK ``dpstrf`` (Lucas, LAWN 161).

    Eliminates the largest remaining diagonal entry first and stops when none
    exceeds the relative threshold.  LAPACK leaves the trailing block
    un-updated, so its Schur complement is formed once; it decides between a
    semidefinite verdict (block numerically zero) and an indefinite one
    (anything else, since a PSD matrix with zero diagonal has zero rows).
    The upper factor is used because its bits and pivot order do not depend
    on the number of BLAS threads; the lower factor's do.
    """
    from scipy.linalg.lapack import dpstrf

    n = matrix.shape[0]
    if n == 0:
        return _Factor(perm=np.arange(0), upper=np.zeros((0, 0)), status=StrictlyPD(logdet=0.0))
    tau = PIVOT_RTOL * max(float(np.diagonal(matrix).max()), 0.0)
    c, piv, rank, _ = dpstrf(matrix.T, tol=tau, lower=0)
    perm = piv - 1
    upper = np.triu(c[:rank])
    if rank == n:
        logdet = 2.0 * float(np.sum(np.log(np.diagonal(upper))))
        return _Factor(perm=perm, upper=upper, status=StrictlyPD(logdet=logdet))
    # only a matrix that is not PSD can hold an entry beyond its diagonal
    off_tol = max(tau, PIVOT_RTOL * float(np.abs(matrix).max()))
    rest = perm[rank:]
    tail = matrix[np.ix_(rest, rest)] - upper[:, rank:].T @ upper[:, rank:]
    j = int(np.argmax(np.diagonal(tail)))
    p, q = divmod(int(np.argmax(np.abs(tail))), n - rank)
    if tail[j, j] < -tau:
        status = NotPSD(witness=int(rest[j]))
    elif abs(tail[p, q]) > off_tol:
        status = NotPSD(witness=int(rest[max(p, q)]))
    else:
        status = SemiDefinite(rank=rank)
    return _Factor(perm=perm, upper=upper, status=status)


class GramMatrix:
    """Symmetric kernel matrix over an ordered point set.

    Immutable after construction.  The pivoted factorization is computed
    under a lock on first use; all later reads are lock-free.
    """

    def __init__(self, points: PointSet, matrix, kernel_name: str = "kernel"):
        points = PointSet.of(points)
        self._adopt(points, _square_symmetric(matrix, len(points)), kernel_name)

    @classmethod
    def _of_checked(cls, points: PointSet, m: np.ndarray, kernel_name: str) -> "GramMatrix":
        """Gram matrix over an array :func:`_square_symmetric` already passed,
        copied without checking it again."""
        out = object.__new__(cls)
        out._adopt(points, m, kernel_name)
        return out

    def _adopt(self, points: PointSet, m: np.ndarray, kernel_name: str) -> None:
        m = m.copy()
        m.setflags(write=False)
        self.points = points
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
    return GramMatrix._of_checked(pts, _checked_gram(kernel, pts), kernel.name)


def _checked_gram(kernel: Kernel, pts: PointSet) -> np.ndarray:
    """``kernel.gram`` over a nonempty point set, with the domain, shape and
    exact-symmetry checks of :func:`assemble_gram` but without its read-only
    copy.  The array may be the kernel's own, so a caller that writes it
    takes it through ``diagnostics._writable``."""
    if len(pts) == 0:
        raise ValueError("point set must be nonempty")
    check_domain(kernel, pts)
    return _square_symmetric(kernel.gram(pts.labels), len(pts))


def _square_symmetric(matrix, n: int) -> np.ndarray:
    """``matrix`` as a C-ordered float array, checked to be n-by-n and
    exactly symmetric."""
    m = np.ascontiguousarray(matrix, dtype=float)
    if m.shape != (n, n):
        raise ValueError("matrix shape does not match the point count")
    if not _exactly_symmetric(m):
        raise ValueError("Gram matrices must be exactly symmetric")
    return m


# Side of the square tiles compared at a time by the exact-symmetry test.
_SYMMETRY_TILE = 128


def _exactly_symmetric(m: np.ndarray) -> bool:
    """Whether the square ``m`` equals its transpose bit for bit, the verdict
    of ``np.array_equal(m, m.T)`` (a NaN never equals itself), from one
    square tile at a time against its mirror: entry (i, j) with j <= i is
    met in the tile of row i and column j, and no temporary is n-by-n."""
    step = _SYMMETRY_TILE
    return all((m[i:i + step, j:j + step] == m[j:j + step, i:i + step].T).all()
               for i in range(0, len(m), step) for j in range(0, i + 1, step))


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
    from scipy.linalg.lapack import dpotrs

    z, _ = dpotrs(fact.upper, b[fact.perm], lower=0)
    out = np.empty_like(z)
    out[fact.perm] = z
    return out


def _unpermuted_factor(fact: _Factor) -> np.ndarray:
    """The (n, rank) factor L in point order, ``L L^T = K`` on its span."""
    lo = np.empty(fact.upper.shape[::-1])
    lo[fact.perm] = fact.upper.T
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
        bound = SOLVE_RTOL * (1.0 + float(np.diagonal(gram.matrix).max()))  # max|K| for PD K
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


@_one_blas_thread
def dual_basis(gram: GramMatrix) -> list[CoefficientVector]:
    """Rows of K_F^{-1}: row x holds the expansion coefficients of the vector
    dual to the section at x.  Pairing any row against K_F gives an indicator."""
    from scipy.linalg.lapack import dpotri

    fact = gram.factorization()
    if not isinstance(fact.status, StrictlyPD):
        raise SingularGram(f"dual basis needs a strictly PD Gram matrix, got {fact.status}")
    n = gram.size
    # dpotri fills the upper triangle of K^-1 in pivot order; mirror it
    inv, _ = dpotri(fact.upper, lower=0)
    kinv_p = np.triu(inv) + np.triu(inv, 1).T
    kinv = np.empty_like(kinv_p)
    kinv[np.ix_(fact.perm, fact.perm)] = kinv_p
    return [
        CoefficientVector(gram.points, kinv[r], role="dual-basis")
        for r in range(n)
    ]


def log_det(gram: GramMatrix) -> float:
    """Log-determinant from the factor's diagonal."""
    status = gram.pd()
    if not isinstance(status, StrictlyPD):
        raise SingularGram(f"log_det needs a strictly PD Gram matrix, got {status}")
    return status.logdet
