"""Membership diagnostics for point masses along nested point-set filtrations.

The squared projection norms (K_F^{-1} delta_x)(x) are nondecreasing along
any nested family of finite sets, and the point mass has finite norm exactly
when they stay bounded over all finite subsets.  A finite computation can
only certify lower bounds, so the verdict here is evidence over the tested
filtration with its tolerances recorded, never a theorem.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import sys
from ctypes import byref, c_double, c_int, c_void_p
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from . import exact
from .core import (
    PIVOT_RTOL,
    SOLVE_RTOL,
    Kernel,
    PointSet,
    _checked_gram,
    _one_blas_thread,
    assemble_gram,
    log_det,
    projection_norm_sq,
)
from .errors import MonotonicityViolation, RKHSKitError, TooFewStages

# A decrease beyond this slack along a filtration is a numerical failure.
MONOTONE_ATOL = 1e-9
MONOTONE_RTOL = 1e-9


@dataclass(frozen=True)
class Filtration:
    """Nested point sets F_1 < F_2 < ... with a distinguished target point.

    Stage i is the first ``sizes[i]`` points of ``points``: the sizes increase
    strictly from at least 1 up to ``len(points)``.  The target may enter
    late; only stages containing it are reported by :func:`trace`.
    """

    points: PointSet
    sizes: tuple
    target: object

    def __post_init__(self):
        points = PointSet.of(self.points)
        sizes = tuple(map(operator.index, self.sizes))
        if not points:
            raise ValueError("a filtration needs at least one point")
        if not (sizes and sizes[0] >= 1 and sizes[-1] == len(points)
                and all(a < b for a, b in zip(sizes, sizes[1:]))):
            raise ValueError(f"stage sizes must increase strictly from 1 or more to {len(points)}")
        if self.target not in points:
            raise ValueError(f"target {self.target!r} never enters the filtration")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "sizes", sizes)

    @classmethod
    def prefixes(cls, points, target=None) -> "Filtration":
        """One new point per stage, in the given order."""
        pts = PointSet.of(points)
        return cls(pts, range(1, len(pts) + 1), pts.labels[0] if target is None and pts else target)

    @classmethod
    def doubling(cls, points, target=None) -> "Filtration":
        """Stage sizes 1, 2, 4, ... for asymptotic growth fits."""
        pts = PointSet.of(points)
        sizes = [1]
        while sizes[-1] < len(pts):
            sizes.append(min(2 * sizes[-1], len(pts)))
        return cls(pts, sizes, pts.labels[0] if target is None and pts else target)


@dataclass(frozen=True)
class ClassifyPolicy:
    """Tolerances used by :func:`classify`; recorded in every verdict."""

    tau_stab: float = 1e-10
    tau_div: float = 1e-3
    k: int = 5


@dataclass(frozen=True)
class Stabilized:
    limit: float
    stage: int
    policy: ClassifyPolicy


@dataclass(frozen=True)
class Converging:
    estimate: float
    last_increment: float
    policy: ClassifyPolicy


@dataclass(frozen=True)
class Diverging:
    growth_exponent: float
    policy: ClassifyPolicy


@dataclass(frozen=True)
class Inconclusive:
    policy: ClassifyPolicy


Membership = Stabilized | Converging | Diverging | Inconclusive


@dataclass
class FiltrationTrace:
    """Projection norms of the target point mass along the reported stages,
    and the same norms as determinant ratios (see :func:`trace`)."""

    target: object
    stage_indices: tuple      # 1-based positions within the filtration
    stage_sizes: tuple
    values: np.ndarray
    exact_values: tuple | None = None
    det_ratios: np.ndarray | None = None
    det_ratio_unavailable: str | None = None  # why det_ratios is None
    verdict: Membership | None = None

    def increments(self) -> np.ndarray:
        return np.diff(self.values)


def _enforce_monotone(values: list) -> None:
    v = np.asarray(values, dtype=float)
    drops = v[1:] < v[:-1] - (MONOTONE_ATOL + MONOTONE_RTOL * np.abs(v[:-1]))
    if drops.any():
        i = int(np.argmax(drops))
        raise MonotonicityViolation(
            f"projection norm dropped from {values[i]!r} to {values[i + 1]!r} along nested stages; "
            "the solves are no longer trustworthy"
        )


def _reported_stages(filtration: Filtration) -> list:
    """``(position, size)`` of each stage containing the target, 1-based."""
    t = filtration.points.index(filtration.target)
    return [(pos, m) for pos, m in enumerate(filtration.sizes, start=1) if m > t]


def _exact_values(gram: list, filtration: Filtration, sizes: list) -> tuple:
    """Exact projection norms of the target at each reported stage, from one
    fraction-free elimination of its exact Gram (:func:`exact.leading_minors`)."""
    t = filtration.points.index(filtration.target)
    minors, column = exact.leading_minors(gram, t)
    dets = [1, *minors]       # dets[m] = det of the first m points
    # norms[m - t - 1]: the norm on the first m points, a running sum from m = t + 1
    norms = list(accumulate(Fraction(column[k] ** 2, dets[k] * dets[k + 1]) for k in range(t, len(minors))))
    return tuple(norms[m - t - 1] for m in sizes)


def _leading_factor(square: np.ndarray, diagonal: np.ndarray):
    """One LAPACK Cholesky, in place, of the leading block of the F-ordered
    square ``square`` that holds K in its upper triangle, read as the factor
    of each of its leading blocks.  ``diagonal`` is K's diagonal, whose
    length is the block's.

    Returns ``(served, scale, log_dets)``: how many leading blocks the upper
    factor U (``U^T U = K``) now in the block's upper triangle serves, those
    LAPACK factored whose pivots ``U_kk^2`` all exceed PIVOT_RTOL times the
    block's largest diagonal entry; ``scale[k]``, that largest entry over
    the first k + 1 points; and ``log_dets[k]``, the log-determinant of the
    first k + 1 points for each served block.  LAPACK leaves the strict
    lower triangle as it was.  A failure at pivot k leaves the first k - 1
    rows valid, so the blocks before it are still served.
    """
    n = len(diagonal)
    info = c_int()
    _fortran("dpotrf", b"U", n, _address(square), len(square), byref(info))
    done = n if info.value == 0 else max(info.value - 1, 0)
    pivots = np.diagonal(square)[:done]
    scale = np.maximum(np.maximum.accumulate(diagonal)[:done], 0.0)
    cleared = np.minimum.accumulate(pivots ** 2) > PIVOT_RTOL * scale
    served = done if cleared.all() else int(np.argmin(cleared))
    return served, scale, np.cumsum(2.0 * np.log(pivots[:served]))


@functools.cache
def _routine(name: str, nargs: int):
    """SciPy's BLAS or LAPACK routine ``name``, the one behind
    ``scipy.linalg.blas`` or ``scipy.linalg.lapack``, through the function
    pointer SciPy exports for Cython."""
    import ctypes

    from scipy.linalg import cython_blas, cython_lapack

    capsule = cython_blas.__pyx_capi__.get(name) or cython_lapack.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(get_pointer(capsule, get_name(capsule)))


# Scalars go to Fortran by the address of one of these.
_SCALAR = {int: c_int, float: c_double}


def _fortran(name: str, *args) -> None:
    """Call SciPy's BLAS or LAPACK routine ``name`` as Fortran does, every
    argument by reference: ints and floats by the address of a C int or
    double; flags (bytes), array addresses (``c_void_p``) and outputs
    (``byref``) as they are.  Unlike the f2py wrappers, which copy a block
    that is not contiguous, this reads a leading block of a larger F-ordered
    matrix where it lies, given its leading dimension."""
    _routine(name, len(args))(*[x if (scalar := _SCALAR.get(type(x))) is None else byref(scalar(x)) for x in args])


def _address(x: np.ndarray) -> c_void_p:
    """The address of the first entry of ``x``, for :func:`_fortran`."""
    return c_void_p(x.ctypes.data)


# Served stages checked together: the check's temporaries are m-by-_CHECK_BLOCK.
_CHECK_BLOCK = 128


def _checked_values(a: np.ndarray, t: int, diagonal: np.ndarray, scale: np.ndarray, served: list) -> list:
    """Float projection norms of the target at the stages of ``served`` that
    the last stage's factor serves, up to the first that fails the check.

    ``a`` is C-ordered; its F-ordered view ``a.T`` holds the factor U in its
    upper triangle and K in its strict lower one (:func:`_leading_factor`),
    and ``diagonal`` is K's diagonal.  The factor serves a stage of m points
    when it serves the m-block and ``zeta_m = U_m^-1 c[:m]`` meets the solve
    contract ``|K_m zeta_m - e_t|_inf <= SOLVE_RTOL (1 + scale[m - 1])``,
    with ``c = U^-T e_t``; its value is then ``sum_{k<m} c_k^2``.  For the
    positive-definite blocks served, ``scale[m - 1]``, their largest
    diagonal entry, is ``max|K_m|``.  Stages are checked in blocks of up to
    ``_CHECK_BLOCK``, each against the leading block of its largest stage
    ``m_b``: column j of ``C`` is ``c[:m_b]`` with its entries from ``m_j``
    on cleared, and since ``U^-1`` is upper triangular, column j of
    ``Z = U_{m_b}^-1 C`` (one ``dtrsm``) is ``zeta_{m_j}`` padded with zeros,
    so one product ``K_{m_b} Z - e_t 1^T`` (one ``dsymm`` on K's lower
    triangle, with K's diagonal swapped in for it) holds each stage's
    residual in its first ``m_j`` rows.  The leading blocks of U and K are
    read where they lie, never copied, and checking stops at the first block
    that fails.  U is left as it was found.
    """
    from scipy.linalg.blas import dtpsv
    from scipy.linalg.lapack import dtrttp

    if not served:
        return []
    if not a.flags.c_contiguous:  # the BLAS calls read it by address
        raise ValueError("the trace's Gram must be C-ordered")
    upper, shared = a.T, a.reshape(-1)[::len(a) + 1]   # the diagonal U and K share, writeable
    served = np.array(served, dtype=np.intp)
    n = int(served[-1])
    e_t = np.zeros(n)
    e_t[t] = 1.0
    # the packed solve's rounding is what the golden diagnose CSVs pin; its
    # packed copy of U dies with the call
    c = dtpsv(n, dtrttp(upper)[0], e_t, trans=1)
    pivots, at = shared[:n].copy(), _address(upper)
    count = 0
    for start in range(0, len(served), _CHECK_BLOCK):
        block = served[start:start + _CHECK_BLOCK]
        m, k = int(block[-1]), len(block)
        inside = np.arange(m) < block[:, None]
        z = (inside * c[:m]).T   # F-ordered, m by k
        z_at = _address(z)
        _fortran("dtrsm", b"L", b"U", b"N", b"N", m, k, 1.0, at, len(a), z_at, m)
        resid = np.empty((m, k), order="F")
        shared[:m] = diagonal[:m]
        _fortran("dsymm", b"L", b"L", m, k, 1.0, at, len(a), z_at, m, 0.0, _address(resid), m)
        shared[:m] = pivots[:m]
        resid[t] -= 1.0
        np.abs(resid, out=resid).T[~inside] = 0.0
        passed = resid.max(axis=0) <= SOLVE_RTOL * (1.0 + scale[block - 1])
        count += k if passed.all() else int(np.argmin(passed))
        if count < start + k:
            break
    with np.errstate(over="ignore"):  # the caller names a stage beyond the float range
        return np.cumsum(c * c)[served[:count] - 1].tolist()


# Columns of the target-deleted Gram written at a time by _write_minor.
_MINOR_TILE = 128


def _write_minor(a: np.ndarray, t: int, diagonal: np.ndarray) -> np.ndarray:
    """Write K without row and column ``t`` over the upper triangle of the
    leading (n - 1)-block of the F-ordered view ``a.T``, from K's strict
    lower triangle there and its diagonal ``diagonal``, and return the
    minor's diagonal.

    Column j of the minor's triangle is row j of ``a``; it reads column j of
    K's triangle, or j + 1 from ``t`` on, with row ``t`` skipped, so the
    columns are written in order, in tiles of at most ``_MINOR_TILE`` split
    at ``t``, and no temporary is n-by-n.  Each tile also writes its mirror
    image, unused, into the strict lower triangle of its square on the
    diagonal, which no later tile reads."""
    n = len(a) - 1
    edges = sorted({*range(0, n, _MINOR_TILE), t, n})
    for j, end in zip(edges, edges[1:]):
        shift = int(j >= t)
        a[j:end, :min(t, end)] = a[:min(t, end), j + shift:end + shift].T
        if end > t:
            a[j:end, t:end] = a[t + 1:end + 1, j + shift:end + shift].T
    minor_diagonal = np.concatenate([diagonal[:t], diagonal[t + 1:]])
    a.reshape(-1)[:n * (n + 2):n + 2] = minor_diagonal
    return minor_diagonal


def _finite(value: float, target, m: int) -> float:
    """``value``, or one error naming the target and the stage of ``m``
    points whose value or ratio lies beyond the float range."""
    if not math.isfinite(value):
        raise OverflowError(f"the projection norm of delta at {target!r} is beyond the float range "
                            f"at stage size {m}")
    return value


def _ratio(log_ratio: float, target, m: int) -> float:
    try:
        return math.exp(log_ratio)
    except OverflowError:
        return _finite(math.inf, target, m)  # raises, naming the stage


# sys.getrefcount of an argument that the caller passed as a temporary
_SOLE_REFERENCES = (lambda a: sys.getrefcount(a))(np.empty(0))


def _writable(a: np.ndarray) -> np.ndarray:
    """``a``, passed as a temporary, or a copy of it when the trace may not
    overwrite it: when it is read-only, a view, or held anywhere but in this
    call (a kernel's cached Gram, say).  The reference count is read first:
    ``a.flags`` holds a reference of its own."""
    if sys.getrefcount(a) <= _SOLE_REFERENCES and a.flags.writeable and a.flags.owndata:
        return a
    return a.copy()


@_one_blas_thread
def _float_trace(kernel: Kernel, filtration: Filtration, sizes: list) -> tuple:
    """``(values, ratios, reason)`` of a float kernel at each reported stage:
    the target's projection norms, its determinant ratios
    det(target-deleted minor) / det(K), or None and the message of the error
    that stopped them.

    Every stage and its target-deleted minor are leading blocks of the last
    stage's Gram and of that Gram with the target's row and column deleted,
    so the Gram is assembled once and one LAPACK Cholesky of each serves
    them: a value while :func:`_checked_values` passes it, a ratio while
    both factors serve its blocks, read from running sums of ``2 log U_kk``.
    Both factors are taken in place in the Gram itself (copied first only
    when the kernel did not hand over a fresh array, :func:`_writable`):
    its F-ordered view holds U over K's strict lower triangle, and after
    the values' check the minor is written over U from that triangle
    (:func:`_write_minor`) and factored as its leading block.  With the
    packed copy of U the values' solve needs, a trace peaks at 1.5 n-by-n
    arrays.  A kernel that gives the first reported stage a different
    matrix on its own than the Gram's leading block has no stage served.
    From the first stage either misses, each stage is assembled once and
    its one pivoted factor gives its value (with its semidefinite and
    not-PSD verdicts) and its ratio, beside its minor's own factor.
    """
    points, target = filtration.points, filtration.target
    t, first = points.index(target), sizes[0]
    a = _writable(_checked_gram(kernel, points))
    consistent = first == len(a) or np.array_equal(_checked_gram(kernel, points.prefix(first)), a[:first, :first])
    values, ratios = [], []
    if consistent:  # an inconsistent kernel has no stage served
        diagonal = a.diagonal().copy()
        served, scale, full = _leading_factor(a.T, diagonal)
        values = _checked_values(a, t, diagonal, scale, [m for m in sizes if m <= served])
        values = [_finite(v, target, m) for v, m in zip(values, sizes)]
        if served:
            rest = np.concatenate([[0.0], _leading_factor(a.T, _write_minor(a, t, diagonal))[2]])
            reach = [m for m in sizes if m <= min(served, len(rest))]
            ends = np.array(reach, dtype=np.intp) - 1
            ratios = [_ratio(x, target, m) for x, m in zip((rest[ends] - full[ends]).tolist(), reach)]
    del a   # free the factors before any stage is solved on its own
    reason = None
    for i in range(min(len(values), len(ratios)), len(sizes)):
        value_due, ratio_due = len(values) == i, reason is None and len(ratios) == i
        if not (value_due or ratio_due):
            continue
        stage = points.prefix(sizes[i])
        gram = assemble_gram(kernel, stage)
        if value_due:
            with np.errstate(over="ignore", invalid="ignore"):  # an overflowed solve is named below
                values.append(_finite(projection_norm_sq(gram, target), target, sizes[i]))
        if ratio_due:
            others = [x for x in stage if x != target]
            try:
                ld_minor = log_det(assemble_gram(kernel, others)) if others else 0.0
                ratios.append(_ratio(ld_minor - log_det(gram), target, sizes[i]))
            except RKHSKitError as err:
                reason = str(err)
    return values, None if reason else ratios, reason


def trace(kernel: Kernel, filtration: Filtration) -> FiltrationTrace:
    """Projection norms and determinant ratios of the target over every stage
    containing it.

    Every stage is a leading block of the last stage's Gram, so one
    factorization of that Gram serves them all.  A kernel whose ``exact_gram``
    returns a Gram carries no rounding at all: one fraction-free elimination
    gives every stage's value as a running sum of exact increments, and a
    zero leading minor raises :class:`SingularGram`.  Float stages are read
    from one LAPACK Cholesky factor, each checked against the pivot threshold
    and the solve's residual contract; from the first stage that fails a
    check, stages are assembled and solved on their own by the pivoted path.
    A float value therefore carries the rounding of the whole factor, within
    the residual contract, and is not bit-identical to a solve of that stage
    on its own.  That factor is taken in place in the Gram ``kernel.gram``
    returned, unless the kernel keeps that array or made it read-only, when
    a copy is factored and the kernel's array is left as it was.

    The determinant ratios det(target-deleted minor) / det(K) are the same
    norms (K^-1)[t, t] by Cramer's rule.  On the exact path each is the
    correctly rounded exact value.  On the float path they are an independent
    cross-check from determinants only (:func:`_float_trace`): the
    target-deleted minor of the last stage is factored after the values'
    blocked check and before the monotonicity check, in the same array as
    the values' factor, so a trace that fails that check has paid for it
    too.  A stage that falls back is assembled and pivot-factored once, and
    that one factor gives both its value and its ratio.  A stage without a
    ratio (a semidefinite minor, say) leaves ``det_ratios`` None and the
    error's message in ``det_ratio_unavailable``.
    """
    reported = _reported_stages(filtration)
    sizes = [m for _, m in reported]
    gram, exact_values, error = kernel.exact_gram(filtration.points.labels), None, None
    if gram is not None:  # the exact ratios are the values, in an array of their own
        exact_values = _exact_values(gram, filtration, sizes)
        values = ratios = [float(v) for v in exact_values]
    else:
        values, ratios, error = _float_trace(kernel, filtration, sizes)
    _enforce_monotone(values)
    return FiltrationTrace(
        target=filtration.target,
        stage_indices=tuple(pos for pos, _ in reported),
        stage_sizes=tuple(sizes),
        values=np.asarray(values, dtype=float),
        exact_values=exact_values,
        det_ratios=None if ratios is None else np.asarray(ratios, dtype=float),
        det_ratio_unavailable=error,
    )


def _fit_slope(xs: np.ndarray, ys: np.ndarray) -> float:
    return float(np.polyfit(xs, ys, 1)[0])


def classify(trace: FiltrationTrace, tau_stab: float = ClassifyPolicy.tau_stab,
             tau_div: float = ClassifyPolicy.tau_div, k: int = ClassifyPolicy.k) -> Membership:
    """Classify the membership evidence carried by a trace.

    Checked in order: stabilized (last k increments below the stabilization
    tolerance), diverging (last k increments all above the divergence
    tolerance, or log-log growth of values against stage size steeper than
    1/2), converging (increments shrinking geometrically with fitted ratio
    below 0.9), otherwise inconclusive.  Thresholds are engineering policy,
    not mathematics; they travel with the verdict.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    for name, tau in (("tau_stab", tau_stab), ("tau_div", tau_div)):
        if not (math.isfinite(tau) and tau > 0):
            raise ValueError(f"{name} must be finite and positive, got {tau!r}")
    policy = ClassifyPolicy(tau_stab=tau_stab, tau_div=tau_div, k=k)
    vals = trace.values
    n = len(vals)
    if n < k + 1:
        raise TooFewStages(f"classification needs at least {k + 1} reported stages, got {n}")
    inc = np.diff(vals)
    last = inc[-k:]
    stab_bounds = tau_stab * (1.0 + np.abs(vals[-k:]))
    div_bounds = tau_div * (1.0 + np.abs(vals[-k:]))

    verdict: Membership
    if np.all(last < stab_bounds):
        # walk back to the first stage from which every increment stays flat
        m = n - 1
        while m > 0 and inc[m - 1] < tau_stab * (1.0 + abs(vals[m])):
            m -= 1
        verdict = Stabilized(limit=float(vals[-1]), stage=trace.stage_indices[m], policy=policy)
    else:
        sizes = np.asarray(trace.stage_sizes[-(k + 1):], dtype=float)
        tail_vals = vals[-(k + 1):]
        slope = (
            _fit_slope(np.log(sizes), np.log(tail_vals))
            if np.all(tail_vals > 0)
            else 0.0
        )
        if np.all(last >= div_bounds) or slope > 0.5:
            verdict = Diverging(growth_exponent=slope, policy=policy)
        elif np.all(last > 0):
            ratio = math.exp(_fit_slope(np.arange(k, dtype=float), np.log(last)))
            if ratio < 0.9:
                est = float(vals[-1] + last[-1] * ratio / (1.0 - ratio))
                verdict = Converging(estimate=est, last_increment=float(last[-1]), policy=policy)
            else:
                verdict = Inconclusive(policy=policy)
        else:
            verdict = Inconclusive(policy=policy)
    trace.verdict = verdict
    return verdict
