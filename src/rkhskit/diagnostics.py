"""Membership diagnostics for point masses along nested point-set filtrations.

The squared projection norms (K_F^{-1} delta_x)(x) are nondecreasing along
any nested family of finite sets, and the point mass has finite norm exactly
when they stay bounded over all finite subsets.  A finite computation can
only certify lower bounds, so the verdict here is evidence over the tested
filtration with its tolerances recorded, never a theorem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exact
from .core import Kernel, PointSet, assemble_gram, log_det, projection_norm_sq
from .errors import MonotonicityViolation, TooFewStages

# A decrease beyond this slack along a filtration is a numerical failure.
MONOTONE_ATOL = 1e-9
MONOTONE_RTOL = 1e-9


@dataclass(frozen=True)
class Filtration:
    """Nested point sets F_1 < F_2 < ... with a distinguished target point.

    Stages must extend each other as prefixes.  The target may enter late;
    only stages containing it are reported by :func:`trace`.
    """

    stages: tuple
    target: object

    def __post_init__(self):
        stages = tuple(PointSet.of(s) for s in self.stages)
        if not stages:
            raise ValueError("a filtration needs at least one stage")
        for a, b in zip(stages, stages[1:]):
            if len(b) <= len(a) or b.labels[: len(a)] != a.labels:
                raise ValueError("stages must strictly extend the previous stage as prefixes")
        if self.target not in stages[-1]:
            raise ValueError(f"target {self.target!r} never enters the filtration")
        object.__setattr__(self, "stages", stages)

    @classmethod
    def prefixes(cls, points, target=None) -> "Filtration":
        """One new point per stage, in the given order."""
        pts = PointSet.of(points)
        if target is None:
            target = pts.labels[0]
        stages = tuple(pts.prefix(n) for n in range(1, len(pts) + 1))
        return cls(stages, target)

    @classmethod
    def doubling(cls, points, target=None) -> "Filtration":
        """Stage sizes 1, 2, 4, ... for asymptotic growth fits."""
        pts = PointSet.of(points)
        if target is None:
            target = pts.labels[0]
        sizes = []
        n = 1
        while n < len(pts):
            sizes.append(n)
            n *= 2
        sizes.append(len(pts))
        return cls(tuple(pts.prefix(n) for n in sizes), target)


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
    """Projection norms of the target point mass along the reported stages."""

    target: object
    stage_indices: tuple      # 1-based positions within the filtration
    stage_sizes: tuple
    values: np.ndarray
    exact_values: tuple | None = None
    det_ratios: np.ndarray | None = None
    verdict: Membership | None = None

    def increments(self) -> np.ndarray:
        return np.diff(self.values)


def _enforce_monotone(values) -> None:
    for a, b in zip(values, values[1:]):
        if b < a - (MONOTONE_ATOL + MONOTONE_RTOL * abs(a)):
            raise MonotonicityViolation(
                f"projection norm dropped from {a!r} to {b!r} along nested stages; "
                "the solves are no longer trustworthy"
            )


def _reported_stages(filtration: Filtration):
    for pos, stage in enumerate(filtration.stages, start=1):
        if filtration.target in stage:
            yield pos, stage


def _assemble_bordered(kernel: Kernel, points, prev):
    """Assemble a stage and seed its factor from ``prev``, the previous
    member of the same nested family (None for the first)."""
    gram = assemble_gram(kernel, points)
    gram.border(prev)
    return gram


def _exact_last_stage(filtration: Filtration, kernel: Kernel):
    """Exact Gram of the last stage and the target's index in it; every
    stage is a leading block of this matrix."""
    last = filtration.stages[-1]
    return kernel.exact_gram(last.labels), last.index(filtration.target)


def trace(kernel: Kernel, filtration: Filtration) -> FiltrationTrace:
    """Projection norms of the target over every stage containing it.

    Kernels with an exact integer path are solved in rational arithmetic, so
    their traces carry no rounding at all: one fraction-free elimination of
    the last stage (:func:`exact.leading_minors`) gives every stage's value
    as a running sum of exact increments.  A zero leading minor raises
    :class:`SingularGram`.  Float stages are not factored afresh: each
    reported stage borders the factor of the one before it
    (:meth:`GramMatrix.border`), falling back to the pivoted factorization
    where bordering does not apply.  A float value therefore depends on the
    stages before it through rounding, within the solve's residual contract,
    and is not bit-identical to a solve of that stage on its own.
    """
    target = filtration.target
    indices, sizes, values = [], [], []
    exact_values: list | None = [] if kernel.is_exact else None
    if exact_values is not None:
        matrix, t = _exact_last_stage(filtration, kernel)
        minors, column = exact.leading_minors(matrix, t)
        dets = [1] + minors       # dets[m] = det of the first m points
        norms, acc = {}, Fraction(0)
        for k in range(t, len(minors)):
            acc += Fraction(column[k] ** 2, dets[k] * dets[k + 1])
            norms[k + 1] = acc
    gram = None
    for pos, stage in _reported_stages(filtration):
        if exact_values is not None:
            val = norms[len(stage)]
            exact_values.append(val)
            values.append(float(val))
        else:
            gram = _assemble_bordered(kernel, stage, gram)
            values.append(projection_norm_sq(gram, target))
        indices.append(pos)
        sizes.append(len(stage))
    _enforce_monotone(values)
    return FiltrationTrace(
        target=target,
        stage_indices=tuple(indices),
        stage_sizes=tuple(sizes),
        values=np.asarray(values, dtype=float),
        exact_values=tuple(exact_values) if exact_values is not None else None,
    )


def det_ratio_trace(kernel: Kernel, filtration: Filtration) -> np.ndarray:
    """Minor-over-determinant values per reported stage.

    For strictly positive-definite stages, det(target-deleted minor) / det(K)
    equals the projection norm; computed here entirely from determinants so it
    stays an independent cross-check of :func:`trace`.  The stages and their
    target-deleted minors form two nested families.  On the exact path each
    family's determinants are the leading minors of one elimination; on the
    float path each family is grown as its own bordered factor.
    """
    target = filtration.target
    if kernel.is_exact:
        matrix, t = _exact_last_stage(filtration, kernel)
        keep = [i for i in range(len(matrix)) if i != t]
        dets = [1] + exact.leading_minors(matrix)[0]
        rest = [1] + exact.leading_minors([[matrix[i][j] for j in keep] for i in keep])[0]
        # a stage of m points has its target-deleted minor on the first m - 1 others
        sizes = [len(stage) for _, stage in _reported_stages(filtration)]
        return np.asarray([float(Fraction(rest[m - 1], dets[m])) for m in sizes], dtype=float)
    ratios = []
    full = minor = None
    for _, stage in _reported_stages(filtration):
        full = _assemble_bordered(kernel, stage, full)
        ld_full = log_det(full)
        rest = [x for x in stage if x != target]
        if rest:
            minor = _assemble_bordered(kernel, PointSet.of(rest), minor)
            ld_minor = log_det(minor)
        else:
            ld_minor = 0.0
        ratios.append(math.exp(ld_minor - ld_full))
    return np.asarray(ratios, dtype=float)


def _fit_slope(xs: np.ndarray, ys: np.ndarray) -> float:
    return float(np.polyfit(xs, ys, 1)[0])


def classify(trace: FiltrationTrace, tau_stab: float = 1e-10,
             tau_div: float = 1e-3, k: int = 5) -> Membership:
    """Classify the membership evidence carried by a trace.

    Checked in order: stabilized (last k increments below the stabilization
    tolerance), diverging (last k increments all above the divergence
    tolerance, or log-log growth of values against stage size steeper than
    1/2), converging (increments shrinking geometrically with fitted ratio
    below 0.9), otherwise inconclusive.  Thresholds are engineering policy,
    not mathematics; they travel with the verdict.
    """
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
