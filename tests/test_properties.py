"""Property-based invariants: monotonicity, biorthogonality, metric axioms,
Foster's theorem."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _graphs import random_connected_network, random_grid_network, resistance_matrix
from rkhskit import (
    BrownianKernel,
    Filtration,
    LevelWeights,
    Network,
    TableKernel,
    assemble_gram,
    build_tree,
    dual_basis,
    energy_inner,
    projection_norm_sq,
    resistance,
    solve_delta,
    trace,
)

SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)


def pd_table(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    k = a.T @ a + 1e-2 * np.eye(n)
    k = np.triu(k) + np.triu(k, 1).T
    return TableKernel(tuple(range(n)), k)


@SETTINGS
@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=2, max_value=8))
def test_trace_monotone_on_random_pd_kernels(seed, n):
    kernel = pd_table(seed, n)
    tr = trace(kernel, Filtration.prefixes(tuple(range(n)), target=0))
    inc = np.diff(tr.values)
    assert (inc >= -(1e-9 + 1e-9 * np.abs(tr.values[:-1]))).all()


@SETTINGS
@given(
    st.integers(min_value=0, max_value=10 ** 6),
    st.integers(min_value=2, max_value=8),
    st.sampled_from([Filtration.prefixes, Filtration.doubling]),
)
def test_bordered_trace_matches_fresh_stage_solves(seed, n, build):
    kernel = pd_table(seed, n)
    target = seed % n
    filtration = build(tuple(range(n)), target=target)
    tr = trace(kernel, filtration)
    fresh = [
        projection_norm_sq(assemble_gram(kernel, stage), target)
        for stage in map(filtration.points.prefix, filtration.sizes)
        if target in stage
    ]
    np.testing.assert_allclose(tr.values, fresh, rtol=1e-9, atol=0)


@SETTINGS
@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=2, max_value=8))
def test_dual_basis_biorthogonality(seed, n):
    kernel = pd_table(seed, n)
    gram = assemble_gram(kernel, tuple(range(n)))
    rows = np.array([r.values for r in dual_basis(gram)])
    assert np.abs(rows @ gram.matrix - np.eye(n)).max() <= 1e-9


@SETTINGS
@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=2, max_value=8))
def test_cramer_ratio_matches_projection_norm(seed, n):
    kernel = pd_table(seed, n)
    gram = assemble_gram(kernel, tuple(range(n)))
    target = seed % n
    keep = [i for i in range(n) if i != target]
    ratio = np.linalg.det(gram.matrix[np.ix_(keep, keep)]) / np.linalg.det(gram.matrix)
    assert projection_norm_sq(gram, target) == pytest.approx(ratio, rel=1e-8)


@SETTINGS
@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=2, max_value=8))
def test_projection_self_duality(seed, n):
    kernel = pd_table(seed, n)
    gram = assemble_gram(kernel, tuple(range(n)))
    zeta = solve_delta(gram, 0).values
    assert zeta @ gram.matrix @ zeta == pytest.approx(zeta[0], rel=1e-9, abs=1e-9)


@SETTINGS
@given(
    st.lists(
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=10,
        unique=True,
    )
)
def test_brownian_gram_symmetric_and_increasing_norms(coords):
    pts = sorted(coords)
    gram = assemble_gram(BrownianKernel(), pts)
    assert np.array_equal(gram.matrix, gram.matrix.T)
    values = [
        projection_norm_sq(assemble_gram(BrownianKernel(), pts[: k + 1]), pts[0])
        for k in range(len(pts))
    ]
    inc = np.diff(values)
    assert (inc >= -(1e-9 + 1e-9 * np.abs(np.asarray(values[:-1])))).all()


@SETTINGS
@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=3, max_value=12))
def test_resistance_metric_axioms(seed, n):
    net = random_connected_network(np.random.default_rng(seed), n)
    r = resistance_matrix(net)
    assert np.abs(r - r.T).max() <= 1e-9
    assert np.abs(np.diagonal(r)).max() <= 1e-12
    worst = (r[:, :, None] - (r[:, None, :] + r[None, :, :])).max()
    assert worst <= 1e-9


@SETTINGS
@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=3, max_value=12))
def test_lipschitz_bound_random_functions(seed, n):
    rng = np.random.default_rng(seed)
    net = random_connected_network(rng, n)
    r = resistance_matrix(net)
    f = rng.normal(size=n)
    f[net.index(0)] = 0.0
    energy = energy_inner(net, f, f)
    diff2 = (f[:, None] - f[None, :]) ** 2
    assert (diff2 <= energy * r + 1e-9 * (1 + energy)).all()


def foster_defect(net):
    """|sum over edges of c_e R(e) - (|V| - 1)| relative to |V| - 1."""
    total = sum(c * resistance(net, u, v) for u, v, c in net.edges)
    return abs(total - (len(net) - 1)) / (len(net) - 1)


@SETTINGS
@given(
    st.integers(min_value=0, max_value=10 ** 6),
    st.integers(min_value=2, max_value=80),
    st.integers(min_value=0, max_value=79),
)
def test_foster_theorem_on_random_networks(seed, n, base):
    net = random_connected_network(np.random.default_rng(seed), n)
    assert foster_defect(Network(net.vertices.labels, base % n, net.edges)) <= 1e-12


@pytest.mark.parametrize(
    "make",
    [lambda: random_grid_network(np.random.default_rng(9), 9),
     lambda: random_grid_network(np.random.default_rng(30), 30),
     lambda: build_tree(9, LevelWeights.geometric(0.5)),
     lambda: build_tree(9, LevelWeights.constant(2.0))],
    ids=["grid-9x9", "grid-30x30", "tree-9-geometric", "tree-9-constant"],
)
def test_foster_theorem_on_grids_and_trees(make):
    assert foster_defect(make()) <= 1e-12
