"""Named reproduction suites: each runs a module's closed-form cross-checks
and reports observed versus expected values."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gff
from .builtin import (
    BinomialKernel,
    BridgeKernel,
    BrownianKernel,
    PascalMatrix,
    binomial_partial_norm,
    bm_delta_norm_sq,
    bm_log_det,
    bridge_delta_norm_sq,
    bridge_log_det,
)
from .core import _unpermuted_factor, assemble_gram, log_det, projection_norm_sq
from .diagnostics import Diverging, Filtration, Stabilized, classify, trace
from .network import (
    Network,
    delta_norm_sq,
    green_kernel,
    kernel_from_resistance,
    resistance,
)
from .tree import LevelWeights, boundary_resistance, build_tree, energy_histogram, tree_delta_norm_closed


@dataclass(frozen=True)
class Check:
    label: str
    passed: bool
    observed: object
    expected: object


def _close(a, b, rtol) -> bool:
    return abs(a - b) <= rtol * (1.0 + max(abs(a), abs(b)))


def reproduce_brownian() -> list[Check]:
    checks = []
    points = list(range(1, 11))
    gram = assemble_gram(BrownianKernel(), points)
    for i in range(len(points) - 1):
        got = projection_norm_sq(gram, points[i])
        want = bm_delta_norm_sq(points, i)
        checks.append(Check(f"norm at x={points[i]}", _close(got, want, 1e-9), got, want))
    ld = log_det(gram)
    want_ld = bm_log_det(points)
    checks.append(Check("log determinant", _close(ld, want_ld, 1e-9), ld, want_ld))
    verdict = classify(trace(BrownianKernel(), Filtration.prefixes(points)))
    ok = isinstance(verdict, Stabilized) and verdict.stage == 2 and _close(verdict.limit, 2.0, 1e-9)
    checks.append(Check("first-point trace stabilizes at stage 2", ok, verdict, "Stabilized(2.0, stage 2)"))
    sparse = [i * (i - 1) // 2 for i in range(2, 22)]
    sparse_gram = assemble_gram(BrownianKernel(), sparse)
    prev = math.inf
    ok = True
    for pos, i in enumerate(range(2, 21)):
        got = projection_norm_sq(sparse_gram, sparse[pos])
        want = (2 * i - 1) / ((i - 1) * i)
        ok = ok and _close(got, want, 1e-9) and got < prev
        prev = got
    checks.append(Check("sparse-point norms (2i-1)/((i-1)i), decreasing", ok, "see suite", "closed form"))
    return checks


def reproduce_bridge() -> list[Check]:
    checks = []
    points = [1 - 2.0 ** (-j) for j in range(1, 11)]
    gram = assemble_gram(BridgeKernel(), points)
    ld = log_det(gram)
    want_ld = bridge_log_det(points)
    checks.append(Check("log determinant", _close(ld, want_ld, 1e-9), ld, want_ld))
    prev = 0.0
    ok = True
    for i, x in enumerate(points):
        got = projection_norm_sq(gram, x)
        want = bridge_delta_norm_sq(points, i)
        ok = ok and _close(got, want, 1e-9) and got > prev
        prev = got
    checks.append(Check("norms match pinned-endpoint formula and increase toward 1", ok, "see suite", "closed form"))
    return checks


def reproduce_binomial() -> list[Check]:
    checks = []
    lower, kmat = PascalMatrix(12), BinomialKernel().exact_gram(range(13))
    ok = all(
        kmat[i][j] == sum(lower.rows[i][t] * lower.rows[j][t] for t in range(13))
        for i in range(13)
        for j in range(13)
    )
    checks.append(Check("K = L L^t exactly (n=12)", ok, "exact", "exact"))
    inv = lower.inverse_rows()
    ident = [
        [sum(lower.rows[i][t] * inv[t][j] for t in range(13)) for j in range(13)]
        for i in range(13)
    ]
    ok = all(ident[i][j] == (1 if i == j else 0) for i in range(13) for j in range(13))
    checks.append(Check("L L^{-1} = I exactly (n=12)", ok, "exact", "exact"))
    ok = True
    for x1 in range(4):
        got = binomial_partial_norm(x1, 20)
        want = sum(math.comb(k, x1) ** 2 for k in range(x1, 21))
        ok = ok and got == want
    checks.append(Check("partial norms equal sums of squared binomials", ok, "exact", "exact"))
    traces = [trace(BinomialKernel(), Filtration.prefixes(range(31), target=x1)) for x1 in range(4)]
    ok = all(
        list(tr.exact_values) == [sum(math.comb(k, x1) ** 2 for k in range(x1, m)) for m in tr.stage_sizes]
        for x1, tr in enumerate(traces)
    )
    checks.append(Check("trace values equal sums of squared binomials for targets 0..3", ok, "exact", "exact"))
    ok = all(isinstance(classify(tr), Diverging) for tr in traces)
    checks.append(Check("point-mass traces diverge for targets 0..3", ok, "Diverging", "Diverging"))
    return checks


def reproduce_network_path() -> list[Check]:
    checks = []
    points = [1.0, 2.0, 3.0, 5.0, 8.0]
    net = Network.coordinate_path(points)
    kernel = green_kernel(net)
    gram = assemble_gram(kernel, points)
    brown = assemble_gram(BrownianKernel(), points).matrix
    err = float(np.abs(gram.matrix - brown).max())
    checks.append(Check("Green Gram equals min(s,t) Gram", err <= 1e-9, err, "<= 1e-9"))
    ok = True
    for x in points:
        want = delta_norm_sq(net, x)
        got = projection_norm_sq(gram, x)
        ok = ok and _close(got, want, 1e-9)
    checks.append(Check("point-mass energy equals total conductance", ok, "see suite", "c(x)"))
    ok = True
    for x in points:
        for y in points:
            ok = ok and _close(resistance(net, x, y), abs(x - y), 1e-9)
            ok = ok and _close(kernel_from_resistance(net, x, y), kernel(x, y), 1e-9)
    checks.append(Check("resistance is |x - y| and reconstructs the kernel", ok, "see suite", "|x-y|"))
    return checks


def reproduce_tree(depth: int = 6) -> list[Check]:
    checks = []
    weights = LevelWeights.geometric(0.5)
    net = build_tree(depth, weights)
    ok = True
    for word in net.vertices:
        if 1 <= len(word) < depth:
            closed = tree_delta_norm_closed(word, weights, depth)
            ok = ok and _close(closed, delta_norm_sq(net, word), 1e-12)
    checks.append(Check("interior energies match 2/r(l) + 1/r(l-1)", ok, "see suite", "closed form"))
    w1 = (0,) * depth
    w2 = (1,) + (0,) * (depth - 1)
    # solved on the tree built above, so the check holds at every depth, not
    # only where boundary_resistance solves (truncation <= 12)
    solved = resistance(net, w1, w2)
    series = boundary_resistance(w1, w2, weights).series_sum
    checks.append(Check("boundary resistance equals series sum", _close(solved, series, 1e-9), solved, series))
    rows = energy_histogram(depth, weights)
    # each row's energy is c(x) of one word at its level, on the tree built above
    gap = max(abs(r.energy / delta_norm_sq(net, (0,) * r.level) - 1.0) for r in rows)
    checks.append(Check("histogram energies equal c(x) on the tree", gap <= 1e-12, gap, "<= 1e-12 relative"))
    total = sum(r.multiplicity for r in rows)
    checks.append(Check("histogram multiplicities sum to 2^depth - 2", total == 2 ** depth - 2, total, 2 ** depth - 2))
    return checks


def reproduce_gff(n: int = 20000, seed: int = 42) -> list[Check]:
    from scipy.special import ndtri

    checks = []
    points = [1.0, 2.0, 3.0, 5.0, 8.0]
    net = Network.coordinate_path(points)
    gram = assemble_gram(green_kernel(net), points)
    draws = gff.sample(gram, n, seed)
    emp = gff.empirical_covariance(draws)
    se = gff.covariance_standard_error(gram, n)
    dev = float(np.max(np.abs(emp - gram.matrix) / se))
    checks.append(Check("empirical covariance within 5 standard errors", dev <= 5.0, dev, "<= 5"))
    # the path's Green kernel is min(s, t): K_ss K_tt + K_st^2 = s t + min(s, t)^2
    s = np.array(points)
    want = np.sqrt((np.outer(s, s) + np.minimum.outer(s, s) ** 2) / n)
    gap = float(np.max(np.abs(se - want) / want))
    checks.append(Check("standard errors equal sqrt((s t + min(s, t)^2) / n)", gap <= 1e-12, gap, "<= 1e-12 relative"))
    # the first draws are numpy's own Philox normals times the sampler's factor
    lo, rows = _unpermuted_factor(gram.factorization()), min(8, n)
    words = np.random.Philox(key=seed).random_raw(rows * lo.shape[1]).reshape(rows, lo.shape[1])
    uniforms = (words >> np.uint64(11)).astype(np.int64) * 2.0 ** -53
    want = ndtri(np.clip(uniforms, 1e-300, None)) @ lo.T
    got = draws.samples[:rows]
    gap = float(np.max(np.abs(got - want)) / np.max(np.abs(got)))
    checks.append(Check(f"first {rows} draws equal Philox normals times the factor", gap <= 1e-12, gap,
                        "<= 1e-12 max|draw|"))
    ok = True
    for x in points:
        deltas = gff.delta_realization(net, draws, x)
        var = float(deltas @ deltas) / n
        c = delta_norm_sq(net, x)
        ok = ok and abs(var - c) <= 5.0 * c * math.sqrt(2.0 / n)
    checks.append(Check("realized point-mass variance matches c(x)", ok, "see suite", "c(x)"))
    again = gff.sample(gram, n, seed)
    ok = np.array_equal(draws.samples, again.samples)
    checks.append(Check("same seed reproduces draws bit-exactly", ok, "equal", "equal"))
    return checks


SUITES = {
    "brownian": reproduce_brownian,
    "bridge": reproduce_bridge,
    "binomial": reproduce_binomial,
    "network-path": reproduce_network_path,
    "tree": reproduce_tree,
    "gff": reproduce_gff,
}
