"""Resistor networks: Laplacian, energy form, dipoles, Green's kernel,
resistance metric."""

import numpy as np
import pytest
import scipy.sparse.linalg

from _graphs import random_connected_network, random_grid_network, random_tree_network, resistance_matrix
from rkhskit import (
    BridgeKernel,
    BrownianKernel,
    Disconnected,
    LevelWeights,
    Network,
    StrictlyPD,
    assemble_gram,
    boundary_resistance,
    build_tree,
    check_pd,
    delta_expand,
    delta_norm_sq,
    dipole,
    energy_inner,
    green_kernel,
    is_interior,
    kernel_from_resistance,
    laplacian_apply,
    resistance,
)


@pytest.fixture
def path_oab():
    return Network(["o", "a", "b"], "o", [("o", "a", 1.0), ("a", "b", 1.0)])


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Network([0, 1], 0, [(0, 0, 1.0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Network([0, 1], 0, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_rejects_nonpositive_conductance(self):
        with pytest.raises(ValueError, match="positive"):
            Network([0, 1], 0, [(0, 1, 0.0)])

    @pytest.mark.parametrize("c", [float("inf"), float("nan"), -1.0])
    def test_rejects_nonfinite_or_negative_conductance(self, c):
        with pytest.raises(ValueError, match="conductance on edge"):
            Network([0, 1, 2], 0, [(0, 1, 1.0), (1, 2, c)])

    def test_reports_first_offending_edge_in_input_order(self):
        # the first bad edge is a duplicate, the later ones fail earlier checks
        edges = [(0, 1, 1.0), (1, 0, 1.0), (2, 2, 1.0), (0, 9, 1.0), (1, 2, -1.0)]
        with pytest.raises(ValueError, match=r"^duplicate edge \(1, 0\)$"):
            Network([0, 1, 2], 0, edges)
        # one edge failing several checks reports the first of them
        with pytest.raises(ValueError, match="self-loop at 9"):
            Network([0, 1], 0, [(0, 1, 1.0), (9, 9, "x")])
        with pytest.raises(ValueError, match="unknown vertex"):
            Network([0, 1], 0, [(0, 1, 1.0), (1, 9, "x")])
        with pytest.raises(ValueError, match="could not convert"):
            Network([0, 1, 2], 0, [(0, 1, "x"), (1, 0, 1.0)])

    def test_every_edge_unpacks_before_any_is_checked(self):
        with pytest.raises(ValueError, match=r"^too many values to unpack \(expected 3"):
            Network([0, 1, 2], 0, [(0, 1, "x"), (0, 2, 1.0, 0)])

    def test_unknown_endpoint_is_reported_before_an_unhashable_one(self):
        with pytest.raises(ValueError, match="references an unknown vertex"):
            Network([0, 1], 0, [("nowhere", {"a": 1}, 1.0)])
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            Network([0, 1], 0, [({"a": 1}, 0, 1.0)])

    def test_unequal_labels_naming_one_vertex_are_a_self_loop(self):
        # JSON reads every NaN as one float object: the labels are unequal,
        # but both name the vertex NaN; the conductance is checked first
        nan = float("nan")
        with pytest.raises(ValueError, match="must be positive"):
            Network([nan, 1], 1, [(nan, 1, 1.0), (nan, nan, -1.0)])
        with pytest.raises(ValueError, match="^self-loop at nan is not allowed$"):
            Network([nan, 1], 1, [(nan, 1, 1.0), (nan, nan, 1.0)])

    def test_edges_from_a_generator_match_a_list(self):
        edges = [(0, 1, 1.0), (1, 2, "2.5"), (0, 2, 4)]
        net = Network([0, 1, 2], 0, (e for e in edges))
        assert net.edges == Network([0, 1, 2], 0, edges).edges == ((0, 1, 1.0), (1, 2, 2.5), (0, 2, 4.0))

    def test_rejects_unknown_vertex(self):
        with pytest.raises(ValueError, match="unknown"):
            Network([0, 1], 0, [(0, 2, 1.0)])

    def test_rejects_disconnected(self):
        with pytest.raises(Disconnected):
            Network([0, 1, 2, 3], 0, [(0, 1, 1.0), (2, 3, 1.0)])

    @pytest.mark.parametrize("field, value", [("vertices", "oab"), ("edges", "oab"), ("edges", {"o": "a"})],
                             ids=["vertices-string", "edges-string", "edges-object"])
    def test_from_json_needs_lists(self, path_oab, field, value):
        # a string would spell one vertex (or edge) per character
        doc = {**path_oab.to_json(), field: value}
        with pytest.raises(ValueError, match=f"^network document needs a '{field}' list$"):
            Network.from_json(doc)

    def test_json_round_trip(self, path_oab):
        doc = path_oab.to_json()
        again = Network.from_json(doc)
        assert again.to_json() == doc

    def test_connectivity_pass_runs_per_document_and_never_on_built_trees(self, monkeypatch):
        import scipy.sparse.csgraph

        calls = []
        real = scipy.sparse.csgraph.connected_components
        monkeypatch.setattr(scipy.sparse.csgraph, "connected_components",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        weights = LevelWeights.geometric(0.5)
        tree = build_tree(4, weights)
        boundary_resistance((0, 1, 1, 0), (1, 0, 0, 1), weights)
        assert len(calls) == 0
        Network.from_json(tree.to_json())
        assert len(calls) == 1

    def test_coordinate_path_conductances(self):
        net = Network.coordinate_path([1.0, 2.0, 4.0])
        assert net.conductance(2.0, 4.0) == pytest.approx(0.5)
        assert net.conductance(0.0, 1.0) == pytest.approx(1.0)


class TestLaplacian:
    def test_constant_function_maps_to_zero(self, path_oab):
        out = laplacian_apply(path_oab, [3.0, 3.0, 3.0])
        np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_unit_path_bump(self, path_oab):
        out = laplacian_apply(path_oab, [0.0, 1.0, 0.0])
        np.testing.assert_allclose(out, [-1.0, 2.0, -1.0])

    def test_dipole_maps_to_source_pattern(self):
        rng = np.random.default_rng(5)
        net = random_connected_network(rng, 9)
        v = dipole(net, 4)
        out = laplacian_apply(net, v.values)
        want = np.zeros(len(net.vertices))
        want[net.index(4)] = 1.0
        want[net.index(0)] = -1.0
        np.testing.assert_allclose(out, want, atol=1e-9)

    def test_row_sums_vanish(self):
        rng = np.random.default_rng(6)
        net = random_connected_network(rng, 10)
        f = rng.normal(size=10)
        total = laplacian_apply(net, f).sum()
        assert abs(total) <= 1e-10 * np.abs(f).max()

    def test_matches_edge_loop_reference(self):
        rng = np.random.default_rng(23)
        net = random_connected_network(rng, 30, extra_edges=40)
        f = rng.normal(size=30)
        ref = np.zeros(30)
        for u, v, c in net.edges:
            d = c * (f[net.index(u)] - f[net.index(v)])
            ref[net.index(u)] += d
            ref[net.index(v)] -= d
        np.testing.assert_allclose(laplacian_apply(net, f), ref, rtol=0, atol=1e-12 * np.abs(ref).max())


class TestEnergyInner:
    def test_constant_has_zero_energy(self, path_oab):
        assert energy_inner(path_oab, [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]) == 0.0

    def test_single_edge(self):
        net = Network([0, 1], 0, [(0, 1, 3.5)])
        ind = [0.0, 1.0]
        assert energy_inner(net, ind, ind) == pytest.approx(3.5)

    def test_dipole_reproduces_point_evaluation(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            net = random_connected_network(rng, 8)
            f = rng.normal(size=8)
            f[net.index(0)] = 0.0
            for x in range(1, 8):
                v = dipole(net, x)
                got = energy_inner(net, v.values, f)
                assert got == pytest.approx(f[net.index(x)], abs=1e-9)

    def test_matches_edge_loop_reference(self):
        rng = np.random.default_rng(24)
        net = random_connected_network(rng, 30, extra_edges=40)
        f, g = rng.normal(size=30), rng.normal(size=30)
        ref = 0.0
        for u, v, c in net.edges:
            iu, iv = net.index(u), net.index(v)
            ref += c * (f[iu] - f[iv]) * (g[iu] - g[iv])
        assert energy_inner(net, f, g) == pytest.approx(ref, rel=1e-12)


class TestDipole:
    def test_single_edge_ohm(self):
        net = Network(["o", "a"], "o", [("o", "a", 4.0)])
        v = dipole(net, "a")
        np.testing.assert_allclose(v.values, [0.0, 0.25])

    def test_series_path(self, path_oab):
        v = dipole(path_oab, "b")
        np.testing.assert_allclose(v.values, [0.0, 1.0, 2.0], atol=1e-12)

    def test_pole_value_is_resistance_to_base(self):
        rng = np.random.default_rng(8)
        net = random_connected_network(rng, 9)
        for x in (1, 5, 8):
            v = dipole(net, x)
            assert v.values[net.index(x)] == pytest.approx(resistance(net, 0, x), rel=1e-9)

    def test_base_has_no_dipole(self, path_oab):
        with pytest.raises(ValueError):
            dipole(path_oab, "o")


class TestGreenKernel:
    def test_path_values(self, path_oab):
        k = green_kernel(path_oab)
        assert k("a", "a") == pytest.approx(1.0)
        assert k("a", "b") == pytest.approx(1.0)
        assert k("b", "b") == pytest.approx(2.0)

    def test_coordinate_path_restores_min_kernel(self):
        pts = [1.0, 2.0, 3.0, 5.0, 8.0]
        net = Network.coordinate_path(pts)
        g = assemble_gram(green_kernel(net), pts).matrix
        b = assemble_gram(BrownianKernel(), pts).matrix
        assert np.abs(g - b).max() <= 1e-9

    def test_green_gram_is_strictly_pd(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            net = random_connected_network(rng, 10)
            kernel = green_kernel(net)
            gram = assemble_gram(kernel, kernel.points)
            assert isinstance(check_pd(gram), StrictlyPD)

    def test_reciprocity_of_independent_dipole_solves(self):
        rng = np.random.default_rng(10)
        net = random_connected_network(rng, 9)
        for x in (1, 3, 7):
            for y in (2, 5, 8):
                vx = dipole(net, x)
                vy = dipole(net, y)
                assert abs(vx.values[net.index(y)] - vy.values[net.index(x)]) <= 1e-9

    @pytest.mark.parametrize(
        "make",
        [lambda: random_grid_network(np.random.default_rng(67), 5), lambda: build_tree(8, LevelWeights.geometric(0.5))]
        + [lambda seed=seed: random_connected_network(np.random.default_rng(seed), 25) for seed in (11, 12, 13)],
        ids=["grid-5x5", "tree-8", "random-11", "random-12", "random-13"],
    )
    def test_gram_and_values_are_green_matrix_bits(self, make):
        net = make()
        kernel = green_kernel(net)
        full = net.green_matrix()
        assert np.array_equal(full, full.T)
        labels = kernel.points.labels
        pick = np.random.default_rng(len(labels)).choice(len(labels), size=6, replace=False)
        pick = np.append(pick, pick[0])  # a repeated label gets the same bits
        assert kernel.gram([labels[i] for i in pick]).tobytes() == full[np.ix_(pick, pick)].tobytes()
        for i, j in zip(pick, np.roll(pick, 1)):
            assert kernel(labels[i], labels[j]) == full[i, j]

    def test_kernel_eval_on_a_depth_11_tree_solves_two_columns(self, tmp_path, monkeypatch, capsys):
        import json

        from rkhskit import cli

        doc = tmp_path / "tree.json"
        net = build_tree(11, LevelWeights.geometric(0.5))
        doc.write_text(json.dumps({"kernel": {"type": "network", "network": net.to_json()}}))
        columns = []
        solve = Network.grounded_solve
        monkeypatch.setattr(
            Network, "grounded_solve",
            lambda self, rhs: columns.append(1 if rhs.ndim == 1 else rhs.shape[1]) or solve(self, rhs),
        )
        x, y = json.dumps([0] * 11), json.dumps([0] * 10 + [1])
        assert cli.main(["kernel", "eval", "--input", str(doc), "--x", x, "--y", y]) == 0
        assert sum(columns) <= 2
        # the dipoles meet at the leaves' parent: r(0) + ... + r(9)
        assert float(capsys.readouterr().out) == pytest.approx(2.0 - 2.0 ** -9, rel=1e-12)


class TestDeltaNorm:
    def test_is_the_laplacian_diagonal_bit_for_bit(self):
        rng = np.random.default_rng(2400)
        for _ in range(300):
            net = random_connected_network(rng, 8)
            for x in range(8):
                unit = np.zeros(8)
                unit[x] = 1.0
                assert delta_norm_sq(net, x) == laplacian_apply(net, unit)[x]

    def test_path_interior(self, path_oab):
        assert delta_norm_sq(path_oab, "a") == pytest.approx(2.0)

    def test_leaf(self):
        net = Network(["o", "a"], "o", [("o", "a", 7.0)])
        assert delta_norm_sq(net, "a") == pytest.approx(7.0)

    def test_base_vertex_is_reported_too(self, path_oab):
        assert delta_norm_sq(path_oab, "o") == pytest.approx(1.0)

    def test_matches_brownian_closed_form(self):
        net = Network.coordinate_path([1.0, 2.0, 3.0])
        assert delta_norm_sq(net, 2.0) == pytest.approx(2.0)


class TestDeltaExpand:
    def test_path_expansion(self, path_oab):
        coeffs = delta_expand(path_oab, "a")
        assert coeffs == {"a": pytest.approx(2.0), "b": pytest.approx(-1.0)}
        # reconstruct pointwise: sum of coefficients times dipole values
        rebuilt = sum(c * dipole(path_oab, y).values for y, c in coeffs.items())
        np.testing.assert_allclose(rebuilt, [0.0, 1.0, 0.0], atol=1e-9)

    def test_leaf_expansion(self):
        net = Network(["o", "a", "b"], "o", [("o", "a", 1.0), ("a", "b", 2.5)])
        coeffs = delta_expand(net, "b")
        assert coeffs == {"b": pytest.approx(2.5), "a": pytest.approx(-2.5)}
        rebuilt = sum(c * dipole(net, y).values for y, c in coeffs.items())
        np.testing.assert_allclose(rebuilt, [0.0, 0.0, 1.0], atol=1e-9)

    def test_expansion_energy_equals_total_conductance(self):
        rng = np.random.default_rng(11)
        net = random_connected_network(rng, 8)
        for x in range(1, 8):
            coeffs = delta_expand(net, x)
            rebuilt = sum(c * dipole(net, y).values for y, c in coeffs.items())
            assert energy_inner(net, rebuilt, rebuilt) == pytest.approx(
                delta_norm_sq(net, x), rel=1e-9
            )


class TestResistance:
    def test_coordinate_path_distance(self):
        pts = [1.0, 2.0, 3.0, 5.0, 8.0]
        net = Network.coordinate_path(pts)
        for x in pts:
            for y in pts:
                assert resistance(net, x, y) == pytest.approx(abs(x - y), rel=1e-9, abs=1e-12)

    def test_same_point_is_zero(self, path_oab):
        assert resistance(path_oab, "b", "b") == 0.0

    def test_bridge_kernel_resistance_identity(self):
        # k(s,s) + k(t,t) - 2 k(s,t) collapses to |s-t| (1 - |s-t|)
        k = BridgeKernel()
        rng = np.random.default_rng(12)
        for _ in range(50):
            s, t = rng.uniform(0.01, 0.99, size=2)
            got = k(s, s) + k(t, t) - 2 * k(s, t)
            want = abs(s - t) * (1 - abs(s - t))
            assert got == pytest.approx(want, abs=1e-12)

    def test_kernel_reconstruction(self, path_oab):
        assert kernel_from_resistance(path_oab, "a", "b") == pytest.approx(1.0)
        assert kernel_from_resistance(path_oab, "a", "o") == pytest.approx(0.0, abs=1e-12)
        assert kernel_from_resistance(path_oab, "b", "b") == pytest.approx(
            resistance(path_oab, "o", "b")
        )

    def test_reconstruction_matches_green_on_random_graphs(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            net = random_connected_network(rng, 9)
            kernel = green_kernel(net)
            for x in range(1, 9):
                for y in range(1, 9):
                    assert kernel_from_resistance(net, x, y) == pytest.approx(
                        kernel(x, y), abs=1e-9
                    )

    def test_metric_axioms_on_random_graphs(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            n = int(rng.integers(3, 13))
            net = random_connected_network(rng, n)
            r = resistance_matrix(net)
            assert np.abs(r - r.T).max() <= 1e-9
            assert np.abs(np.diagonal(r)).max() <= 1e-12
            assert r[~np.eye(n, dtype=bool)].min() > 0
            # triangle inequality over all triples: r[i,j] <= r[i,k] + r[k,j]
            worst = (r[:, :, None] - (r[:, None, :] + r[None, :, :])).max()
            assert worst <= 1e-9


class TestInverseGramIdentity:
    def test_full_grounded_set(self):
        rng = np.random.default_rng(15)
        for maker in (random_tree_network, random_connected_network):
            net = maker(rng, 9)
            kernel = green_kernel(net)
            gram = assemble_gram(kernel, kernel.points)
            kinv = np.linalg.inv(gram.matrix)
            for x in kernel.points:
                i = kernel.points.index(x)
                assert kinv[i, i] == pytest.approx(delta_norm_sq(net, x), rel=1e-8)
                for y in kernel.points:
                    j = kernel.points.index(y)
                    if i == j:
                        continue
                    want = -net.conductance(x, y)
                    assert kinv[i, j] == pytest.approx(want, abs=1e-8 * (1 + abs(want)))

    def test_truncated_set_interior_rows_only(self):
        net = Network.coordinate_path([1.0, 2.0, 3.0])
        kernel = green_kernel(net)
        subset = [1.0, 2.0]
        gram = assemble_gram(kernel, subset)
        kinv = np.linalg.inv(gram.matrix)
        assert is_interior(net, subset, 1.0)
        assert not is_interior(net, subset, 2.0)
        assert kinv[0, 0] == pytest.approx(delta_norm_sq(net, 1.0), rel=1e-9)
        # boundary vertex: 3.0 was truncated away, so the diagonal drops
        assert kinv[1, 1] == pytest.approx(1.0, rel=1e-9)
        assert kinv[1, 1] != pytest.approx(delta_norm_sq(net, 2.0), rel=1e-3)


class TestEstimates:
    def test_lipschitz_bound(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            n = int(rng.integers(3, 13))
            net = random_connected_network(rng, n)
            r = resistance_matrix(net)
            f = rng.normal(size=n)
            f[net.index(0)] = 0.0
            energy = energy_inner(net, f, f)
            for i in range(n):
                for j in range(n):
                    lhs = (f[i] - f[j]) ** 2
                    assert lhs <= energy * r[i, j] + 1e-9 * (1 + energy)

    def test_sup_bound_from_base(self):
        rng = np.random.default_rng(17)
        net = random_connected_network(rng, 10)
        r = resistance_matrix(net)
        f = rng.normal(size=10)
        f[net.index(0)] = 0.0
        norm = np.sqrt(energy_inner(net, f, f))
        ib = net.index(0)
        for i in range(10):
            assert abs(f[i]) <= abs(f[ib]) + norm * np.sqrt(r[ib, i]) + 1e-9

    def test_product_energy_bound(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            n = int(rng.integers(3, 13))
            net = random_connected_network(rng, n)
            f1 = rng.uniform(-2, 2, size=n)
            f2 = rng.uniform(-2, 2, size=n)
            f1[net.index(0)] = 0.0
            f2[net.index(0)] = 0.0
            prod = f1 * f2
            lhs = energy_inner(net, prod, prod)
            cap = (np.abs(f1).max() ** 2 + np.abs(f2).max() ** 2) * (
                energy_inner(net, f1, f1) + energy_inner(net, f2, f2)
            )
            assert lhs <= cap + 1e-9 * (1 + cap)


class TestGroundedAssembly:
    def test_diagonal_does_not_depend_on_the_base(self, monkeypatch):
        # every column of a complete 40-vertex graph holds more entries than
        # a sparse format conversion sorts stably, so the diagonal sums must
        # not be left to it
        rng = np.random.default_rng(40)
        n = 40
        edges = [(i, j, float(rng.uniform(0.5, 2.0))) for i in range(n) for j in range(i + 1, n)]
        factored, options = [], []
        splu = scipy.sparse.linalg.splu
        monkeypatch.setattr(
            scipy.sparse.linalg, "splu", lambda a, **kw: factored.append(a) or options.append(kw) or splu(a, **kw)
        )
        diagonals = {}
        for base in (0, 17, 39):
            Network(range(n), base, edges).grounded_solve(np.ones(n))
            diagonals[base] = factored[-1].diagonal()
            # the base's row and column are the identity's
            assert diagonals[base][base] == 1.0
        # the grounded Laplacian is SPD: every factor is asked for symmetric mode
        symmetric = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}
        assert options == [symmetric] * 3
        for b1 in diagonals:
            for b2 in diagonals:
                keep = np.ones(n, dtype=bool)
                keep[[b1, b2]] = False
                assert diagonals[b1][keep].tobytes() == diagonals[b2][keep].tobytes(), (b1, b2)


def _dense_grounded_laplacian(net):
    """The Laplacian off the base's row and column, assembled densely from
    the edge list, in grounded-vertex order."""
    n = len(net.vertices)
    lap = np.zeros((n, n))
    for u, v, c in net.edges:
        i, j = net.index(u), net.index(v)
        lap[i, i] += c
        lap[j, j] += c
        lap[i, j] -= c
        lap[j, i] -= c
    b = net.index(net.base)
    return np.delete(np.delete(lap, b, axis=0), b, axis=1)


def _masked_neighbors(net, x):
    """Neighbours of x by masking every edge, in edge order."""
    i = net.index(x)
    u, v = net._ends.T
    at = (u == i) | (v == i)
    labels = net.vertices.labels
    idx = np.where(u[at] == i, v[at], u[at])
    return tuple(zip([labels[j] for j in idx.tolist()], net._cond[at].tolist()))


class TestNeighbourIndex:
    @pytest.mark.parametrize(
        "make",
        [lambda seed=seed: random_connected_network(np.random.default_rng(seed), 12) for seed in (5, 6, 7)]
        + [lambda seed=seed: random_tree_network(np.random.default_rng(seed), 12) for seed in (8, 9)]
        + [lambda: random_grid_network(np.random.default_rng(68), 6), lambda: build_tree(6, LevelWeights.geometric(0.5))],
        ids=["random-5", "random-6", "random-7", "tree-8", "tree-9", "grid-6x6", "tree-6"],
    )
    def test_neighbors_match_edge_mask_in_order_and_bits(self, make):
        net = make()
        for x in net.vertices:
            got, want = net.neighbors(x), _masked_neighbors(net, x)
            assert [y for y, _ in got] == [y for y, _ in want]
            assert np.array([c for _, c in got]).tobytes() == np.array([c for _, c in want]).tobytes()

    def test_index_is_built_on_first_read(self):
        net = random_grid_network(np.random.default_rng(69), 3)
        assert net._adjacency is None
        net.neighbors(4)
        assert net._adjacency is not None


class TestSymmetricFactor:
    @pytest.mark.parametrize(
        "make",
        [lambda seed=seed: random_connected_network(np.random.default_rng(seed), 30) for seed in (1, 2, 3, 4)]
        + [lambda: random_grid_network(np.random.default_rng(66), 6),
           lambda: build_tree(7, LevelWeights.geometric(0.5)),
           lambda: build_tree(7, LevelWeights.constant(1.0))],
        ids=["random-1", "random-2", "random-3", "random-4", "grid-6x6", "tree-7-geometric", "tree-7-constant"],
    )
    def test_one_permutation_and_green_matches_dense_inverse(self, make):
        net = make()
        factor = net._grounded_system()
        # diagonal pivots: the row permutation is the column permutation
        assert np.array_equal(factor.perm_r, factor.perm_c)
        want = np.linalg.inv(_dense_grounded_laplacian(net))
        got = net.green_matrix()
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestConcurrency:
    def test_grounded_factor_built_once_across_threads(self, monkeypatch):
        import sys
        import threading

        rng = np.random.default_rng(20)
        net = random_connected_network(rng, 12)
        factored = []
        splu = scipy.sparse.linalg.splu
        monkeypatch.setattr(scipy.sparse.linalg, "splu", lambda a, **kw: factored.append(a) or splu(a, **kw))
        results = [None] * 8
        barrier = threading.Barrier(8)

        def work(i):
            barrier.wait()
            results[i] = net._grounded_system()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(factored) == 1
        assert all(r is results[0] for r in results)

    def test_dipole_solves_are_order_independent(self):
        rng = np.random.default_rng(21)
        net = random_connected_network(rng, 10)
        forward = [dipole(net, x).values for x in range(1, 10)]
        backward = [dipole(net, x).values for x in reversed(range(1, 10))]
        for a, b in zip(forward, reversed(backward)):
            np.testing.assert_array_equal(a, b)

    def test_concurrent_grounded_solves_match_serial_bit_for_bit(self):
        import threading

        rng = np.random.default_rng(22)
        serial_net = random_connected_network(rng, 200, extra_edges=150)
        shared = Network.from_json(serial_net.to_json())
        n = len(serial_net)
        blocks = [rng.normal(size=(n, 3)) for _ in range(4)]
        cols = [rng.normal(size=n) for _ in range(4)]
        expected = [
            (serial_net.grounded_solve(b), serial_net.grounded_solve(c)) for b, c in zip(blocks, cols)
        ]
        results = [None] * 4
        barrier = threading.Barrier(4)

        def work(i):
            barrier.wait()
            results[i] = (shared.grounded_solve(blocks[i]), shared.grounded_solve(cols[i]))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])


    def test_lazy_edges_and_grounded_vertices_agree_across_threads(self):
        import sys
        import threading

        weights = LevelWeights.geometric(0.5)
        serial = build_tree(5, weights)
        want = (serial.edges, serial.grounded_vertices().labels)
        shared = build_tree(5, weights)  # neither view built yet
        results = [None] * 8
        barrier = threading.Barrier(8)

        def work(i):
            barrier.wait()
            results[i] = (shared.edges, shared.grounded_vertices().labels)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert all(r == want for r in results)


class TestSparsePath:
    def test_large_path_matches_distance(self):
        n = 4500  # a long path: 4500 grounded unknowns
        pts = [float(i) for i in range(1, n + 1)]
        net = Network.coordinate_path(pts)
        assert resistance(net, 10.0, 1510.0) == pytest.approx(1500.0, rel=1e-8)
        assert resistance(net, 0.0, 3.0) == pytest.approx(3.0, rel=1e-8)
        assert delta_norm_sq(net, 7.0) == pytest.approx(2.0)


class TestDeepTree:
    def test_depth_11_leaf_resistances_match_series(self):
        # tree paths are series circuits: the meet level up to the leaves,
        # on both sides, with r(n) = 2^-n
        depth = 11
        net = build_tree(depth, LevelWeights.geometric(0.5))
        rng = np.random.default_rng(1111)
        pairs = 0
        while pairs < 50:
            w1, w2 = (tuple(int(b) for b in rng.integers(0, 2, depth)) for _ in range(2))
            if w1 == w2:
                continue
            meet = next(n for n in range(depth) if w1[n] != w2[n])
            series = 2.0 * sum(0.5 ** n for n in range(meet, depth))
            got = resistance(net, w1, w2)
            assert abs(got - series) <= 1e-9 * (1.0 + series), (w1, w2, got, series)
            pairs += 1

    @pytest.mark.parametrize("depth,count", [(11, 200), (12, 100)])
    def test_geometric_half_leaf_resistances_are_exact_to_rounding(self, depth, count):
        # with r(n) = 2^-n every series sum is a dyadic rational, and the
        # symmetric factor of the grounded Laplacian meets it within 1e-14
        # (1 + s); the opposite ends of the tree are the worst case
        net = build_tree(depth, LevelWeights.geometric(0.5))
        rng = np.random.default_rng(1214)
        pairs = [((0,) * depth, (1,) * depth)]
        while len(pairs) < count:
            w1, w2 = (tuple(int(b) for b in rng.integers(0, 2, depth)) for _ in range(2))
            if w1 != w2:
                pairs.append((w1, w2))
        for w1, w2 in pairs:
            meet = next(n for n in range(depth) if w1[n] != w2[n])
            series = 2.0 * sum(0.5 ** n for n in range(meet, depth))
            got = resistance(net, w1, w2)
            assert abs(got - series) <= 1e-14 * (1.0 + series), (w1, w2, got, series)
