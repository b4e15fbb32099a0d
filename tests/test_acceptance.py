"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np

from _graphs import random_connected_network
from rkhskit import (
    BinomialKernel,
    BridgeKernel,
    BrownianKernel,
    Diverging,
    Filtration,
    Network,
    PascalMatrix,
    Stabilized,
    TableKernel,
    assemble_gram,
    binomial_partial_norm,
    bm_log_det,
    bridge_delta_norm_sq,
    bridge_log_det,
    classify,
    delta_norm_sq,
    dual_basis,
    energy_inner,
    green_kernel,
    log_det,
    pascal_factorization,
    projection_norm_sq,
    resistance,
    sample,
    trace,
)
from rkhskit.gff import covariance_standard_error, delta_realization, empirical_covariance
from rkhskit.tree import LevelWeights, boundary_resistance, build_tree, energy_histogram, tree_delta_norm_closed


def _pd_table(rng, n):
    a = rng.normal(size=(n, n))
    k = a.T @ a + 1e-2 * np.eye(n)
    k = np.triu(k) + np.triu(k, 1).T
    return TableKernel(tuple(range(n)), k)


def _resistance_matrix(net):
    g = net.green_matrix()
    grounded = net.grounded_vertices()
    labels = list(net.vertices.labels)
    n = len(labels)
    gi = [grounded.index(v) if v != net.base else None for v in labels]
    r = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            gxx = g[gi[i], gi[i]] if gi[i] is not None else 0.0
            gyy = g[gi[j], gi[j]] if gi[j] is not None else 0.0
            gxy = g[gi[i], gi[j]] if gi[i] is not None and gi[j] is not None else 0.0
            r[i, j] = gxx + gyy - 2.0 * gxy
    return r


def test_criterion_1_brownian_norms_and_stabilization():
    start = time.perf_counter()
    points = list(range(1, 11))
    gram = assemble_gram(BrownianKernel(), points)
    for i in range(9):  # every point with a right neighbor
        got = projection_norm_sq(gram, points[i])
        if i == 0:
            want = points[1] / (points[0] * (points[1] - points[0]))
        else:
            want = (points[i + 1] - points[i - 1]) / (
                (points[i] - points[i - 1]) * (points[i + 1] - points[i])
            )
        assert abs(got - want) <= 1e-9 * want
    verdict = classify(trace(BrownianKernel(), Filtration.prefixes(points, target=1)))
    assert isinstance(verdict, Stabilized)
    assert verdict.stage == 2
    assert abs(verdict.limit - 2.0) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS criterion 1: Brownian norms + stage-2 stabilization ({elapsed:.3f}s)")


def test_criterion_2_brownian_determinants():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(1, 13))
        pts = np.unique(rng.uniform(0.01, 100.0, size=n))
        gram = assemble_gram(BrownianKernel(), pts)
        want = bm_log_det(pts)
        assert abs(log_det(gram) - want) <= 1e-9 * (1.0 + abs(want))
    print("PASS criterion 2: telescoping log-determinants on 50 random sets")


def test_criterion_3_sparse_points_decreasing_norms():
    points = [i * (i - 1) // 2 for i in range(2, 22)]  # 1, 3, 6, ..., 210
    gram = assemble_gram(BrownianKernel(), points)
    prev = math.inf
    for pos, i in enumerate(range(2, 21)):
        got = projection_norm_sq(gram, points[pos])
        want = (2 * i - 1) / ((i - 1) * i)
        assert abs(got - want) <= 1e-9 * want
        assert got < prev
        prev = got
    assert prev < 0.11  # heading to zero
    print("PASS criterion 3: sparse-point norms (2i-1)/((i-1)i), strictly decreasing")


def test_criterion_4_accumulation_point_diverges():
    start = time.perf_counter()
    points = [1.0] + [1.0 - 1.0 / n for n in range(2, 201)]
    tr = trace(BrownianKernel(), Filtration.prefixes(points, target=1.0))
    verdict = classify(tr)
    assert isinstance(verdict, Diverging)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 4: accumulation-point trace diverges ({elapsed:.3f}s)")


def test_criterion_5_bridge_determinants_and_norms():
    rng = np.random.default_rng(55)
    for _ in range(25):
        n = int(rng.integers(1, 13))
        pts = np.unique(rng.uniform(0.02, 0.98, size=n))
        gram = assemble_gram(BridgeKernel(), pts)
        want = bridge_log_det(pts)
        assert abs(log_det(gram) - want) <= 1e-9 * (1.0 + abs(want))
        for i, x in enumerate(pts):
            closed = bridge_delta_norm_sq(pts, i)
            solved = projection_norm_sq(gram, x)
            assert abs(solved - closed) <= 1e-9 * closed
    pts = [1 - 2.0 ** (-j) for j in range(1, 11)]
    gram = assemble_gram(BridgeKernel(), pts)
    norms = [projection_norm_sq(gram, x) for x in pts]
    assert all(b > a for a, b in zip(norms, norms[1:]))
    assert norms[-1] > 2 ** 10
    print("PASS criterion 5: bridge determinants, pinned-endpoint norms, blow-up toward 1")


def test_criterion_6_binomial_exact_identities():
    for n in (1, 5, 12, 20):
        lower, kmat = pascal_factorization(n)
        size = n + 1
        for i in range(size):
            for j in range(size):
                assert kmat[i][j] == sum(
                    lower.rows[i][t] * lower.rows[j][t] for t in range(size)
                )
    lower = PascalMatrix(20)
    inv = lower.inverse_rows()
    for x in range(21):
        for y in range(21):
            want = (-1) ** (x - y) * math.comb(x, y) if y <= x else 0
            assert inv[x][y] == want
            assert sum(lower.rows[x][t] * inv[t][y] for t in range(21)) == (1 if x == y else 0)
    for n in range(13):
        for m in range(n + 1):
            total = sum(
                (-1) ** (m + j) * math.comb(n, j) * math.comb(j, m) for j in range(m, n + 1)
            )
            assert total == (1 if m == n else 0)
    for n in range(21):
        for x1 in range(n + 1):
            assert binomial_partial_norm(x1, n) == sum(
                math.comb(k, x1) ** 2 for k in range(x1, n + 1)
            )
    for target in range(4):
        tr = trace(BinomialKernel(), Filtration.prefixes(list(range(31)), target=target))
        expected = [
            sum(math.comb(k, target) ** 2 for k in range(target, n + 1)) for n in range(target, 31)
        ]
        assert [int(v) for v in tr.exact_values] == expected  # zero tolerance
        assert isinstance(classify(tr), Diverging)
    print("PASS criterion 6: exact Pascal factorization, inverse, partial norms, divergence")


def test_criterion_7_network_cross_check():
    points = [1.0, 2.0, 3.0, 5.0, 8.0]
    net = Network.coordinate_path(points)
    green_gram = assemble_gram(green_kernel(net), points)
    brown_gram = assemble_gram(BrownianKernel(), points)
    assert np.abs(green_gram.matrix - brown_gram.matrix).max() <= 1e-9
    kinv = np.linalg.inv(green_gram.matrix)
    for i, x in enumerate(points):
        c = delta_norm_sq(net, x)
        assert abs(kinv[i, i] - c) <= 1e-9 * (1.0 + c)
    print("PASS criterion 7: Green's Gram equals min-kernel Gram; inverse diagonal is c(x)")


def test_criterion_8_resistance_metric():
    points = [1.0, 2.0, 3.0, 5.0, 8.0]
    net = Network.coordinate_path(points)
    for x in points:
        for y in points:
            assert abs(resistance(net, x, y) - abs(x - y)) <= 1e-9 * (1.0 + abs(x - y))
    rng = np.random.default_rng(88)
    for _ in range(100):
        n = int(rng.integers(3, 13))
        graph = random_connected_network(rng, n)
        r = _resistance_matrix(graph)
        assert np.abs(r - r.T).max() <= 1e-9
        assert np.abs(np.diagonal(r)).max() <= 1e-12
        off = r[~np.eye(n, dtype=bool)]
        assert off.min() > 0.0
        assert (r[:, :, None] - (r[:, None, :] + r[None, :, :])).max() <= 1e-9
        # kernel reconstruction from resistances, all pairs
        g = graph.green_matrix()
        ib = graph.index(0)
        keep = [i for i in range(n) if i != ib]
        recon = 0.5 * (r[ib][keep][:, None] + r[ib][keep][None, :] - r[np.ix_(keep, keep)])
        assert np.abs(recon - g).max() <= 1e-9
        # covariance triangle bound with nonnegative margin, all triples
        full_k = np.zeros((n, n))
        full_k[np.ix_(keep, keep)] = g
        ro = r[ib]
        margin = full_k[:, :, None] + ro[None, None, :] - full_k[:, None, :] - full_k.T[None, :, :]
        assert margin.min() >= -1e-9 * (1.0 + np.abs(full_k).max() + ro.max())
    print("PASS criterion 8: |x-y| path resistance, metric axioms x100, reconstruction, triangle bound")


def test_criterion_9_gff_sampling():
    start = time.perf_counter()
    points = [1.0, 2.0, 3.0, 5.0, 8.0]
    net = Network.coordinate_path(points)
    gram = assemble_gram(green_kernel(net), points)
    n = 100_000
    draws = sample(gram, n, 42)
    emp = empirical_covariance(draws)
    se = covariance_standard_error(gram, n)
    assert (np.abs(emp - gram.matrix) <= 5.0 * se).all()
    for x in points:
        deltas = delta_realization(net, draws, x)
        var = float(deltas @ deltas) / n
        c = delta_norm_sq(net, x)
        assert abs(var - c) <= 5.0 * c * math.sqrt(2.0 / n)
    again = sample(gram, n, 42)
    assert np.array_equal(draws.samples, again.samples)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS criterion 9: GFF covariance, realized masses, bit-exact reruns ({elapsed:.1f}s)")


def test_criterion_10_tree_energies_and_boundary():
    weights = LevelWeights.geometric(0.5)  # r(n) = 2^-n with r(0) = 1
    depth = 10
    net = build_tree(depth, weights)
    for word in net.vertices:
        if 1 <= len(word) < depth:
            closed = tree_delta_norm_closed(word, weights, depth)
            assert closed == delta_norm_sq(net, word)  # exact dyadic sums
    w1 = (0,) * depth
    w2 = (0, 0, 1) + (0,) * (depth - 3)
    br = boundary_resistance(w1, w2, weights)
    assert br.network_value is not None
    assert abs(br.network_value - br.series_sum) <= 1e-9 * (1.0 + br.series_sum)
    deep = boundary_resistance((0,) * 24, (1,) + (0,) * 23, weights)
    assert abs(deep.series_sum - deep.tail_value) <= 1e-6
    rows = energy_histogram(depth, weights)
    assert sum(row.multiplicity for row in rows) == 2 ** depth - 2
    print("PASS criterion 10: tree energies exact, boundary resistance, histogram")


def test_criterion_11_property_suites_200_instances():
    rng = np.random.default_rng(11_000)
    # monotonicity along nested prefixes of random PD kernels
    for _ in range(200):
        n = int(rng.integers(2, 9))
        kernel = _pd_table(rng, n)
        tr = trace(kernel, Filtration.prefixes(tuple(range(n)), target=0))
        inc = np.diff(tr.values)
        assert (inc >= -(1e-9 + 1e-9 * np.abs(tr.values[:-1]))).all()
    # dual-basis biorthogonality
    for _ in range(200):
        n = int(rng.integers(2, 9))
        gram = assemble_gram(_pd_table(rng, n), tuple(range(n)))
        rows = np.array([r.values for r in dual_basis(gram)])
        assert np.abs(rows @ gram.matrix - np.eye(n)).max() <= 1e-9
    # minor-over-determinant consistency
    for _ in range(200):
        n = int(rng.integers(2, 9))
        gram = assemble_gram(_pd_table(rng, n), tuple(range(n)))
        target = int(rng.integers(0, n))
        keep = [i for i in range(n) if i != target]
        ratio = np.linalg.det(gram.matrix[np.ix_(keep, keep)]) / np.linalg.det(gram.matrix)
        assert abs(projection_norm_sq(gram, target) - ratio) <= 1e-8 * abs(ratio)
    # Lipschitz estimate through the resistance metric
    for _ in range(200):
        n = int(rng.integers(3, 13))
        net = random_connected_network(rng, n)
        r = _resistance_matrix(net)
        f = rng.normal(size=n)
        f[net.index(0)] = 0.0
        energy = energy_inner(net, f, f)
        diff2 = (f[:, None] - f[None, :]) ** 2
        assert (diff2 <= energy * r + 1e-9 * (1.0 + energy)).all()
    # pointwise-product energy bound
    for _ in range(200):
        n = int(rng.integers(3, 13))
        net = random_connected_network(rng, n)
        f1 = rng.uniform(-3, 3, size=n)
        f2 = rng.uniform(-3, 3, size=n)
        f1[net.index(0)] = 0.0
        f2[net.index(0)] = 0.0
        lhs = energy_inner(net, f1 * f2, f1 * f2)
        cap = (np.abs(f1).max() ** 2 + np.abs(f2).max() ** 2) * (
            energy_inner(net, f1, f1) + energy_inner(net, f2, f2)
        )
        assert lhs <= cap + 1e-9 * (1.0 + cap)
    print("PASS criterion 11: five property suites, 200 randomized instances each")
