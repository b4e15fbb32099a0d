"""Dyadic trees with level weights: energies, boundary resistance, histogram."""

import itertools
import random

import pytest

from rkhskit import tree
from rkhskit import (
    BoundaryWord,
    LevelWeights,
    WeightUndefined,
    boundary_resistance,
    build_tree,
    delta_norm_sq,
    energy_histogram,
    meet_level,
    parse_word,
    resistance,
    tree_delta_norm_closed,
    word_str,
)


class TestWords:
    def test_parse_and_print(self):
        assert parse_word("010") == (0, 1, 0)
        assert parse_word("") == ()
        assert word_str((1, 1)) == "11"
        assert word_str(()) == "()"
        with pytest.raises(ValueError):
            parse_word("012")

    def test_meet_level(self):
        assert meet_level((0, 1, 0), (0, 1, 1)) == 2
        assert meet_level((0,), (1,)) == 0
        assert meet_level((1, 0), (1, 0)) == 2


class TestLevelWeights:
    def test_parse_specs(self, tmp_path):
        g = LevelWeights.parse("geometric:0.5")
        assert g.r(0) == 1.0 and g.r(3) == 0.125
        c = LevelWeights.parse("constant:2")
        assert c.r(9) == 2.0
        wfile = tmp_path / "w.txt"
        wfile.write_text("1.0\n0.5\n0.25\n")
        e = LevelWeights.parse(f"file:{wfile}")
        assert e.r(2) == 0.25
        with pytest.raises(WeightUndefined):
            e.r(3)
        with pytest.raises(ValueError):
            LevelWeights.parse("poly:2")

    @pytest.mark.parametrize("spec", [3, 0.5, None, ["geometric:0.5"]])
    def test_parse_refuses_a_non_string(self, spec):
        with pytest.raises(ValueError, match="must be a string"):
            LevelWeights.parse(spec)

    def test_summability(self):
        assert LevelWeights.geometric(0.5).summable
        assert not LevelWeights.geometric(1.0).summable
        assert not LevelWeights.constant(1.0).summable

    def test_tail_sum_geometric(self):
        w = LevelWeights.geometric(0.5)
        assert w.tail_sum(0) == pytest.approx(2.0)
        assert w.tail_sum(3) == pytest.approx(0.25)
        assert LevelWeights.constant(1.0).tail_sum(0) is None

    def test_partial_sum(self):
        w = LevelWeights.geometric(0.5)
        assert w.partial_sum(1, 4) == pytest.approx(0.5 + 0.25 + 0.125)

    def test_subnormal_level_has_no_conductance(self):
        w = LevelWeights.geometric(1e-160)
        assert w.r(1) == 1e-160
        with pytest.raises(WeightUndefined, match="level 2"):
            w.r(2)  # 1e-320 > 0, but 1 / 1e-320 overflows


class TestBuildTree:
    def test_smallest_tree(self):
        net = build_tree(1, LevelWeights.constant(1.0))
        assert len(net.vertices) == 3
        assert len(net.edges) == 2
        assert all(c == pytest.approx(1.0) for _, _, c in net.edges)

    def test_level_conductances(self):
        net = build_tree(3, LevelWeights.geometric(0.5))
        assert net.conductance((0, 1), (0, 1, 0)) == pytest.approx(4.0)  # 1/r(2)

    def test_vertex_count(self):
        net = build_tree(4, LevelWeights.geometric(0.5))
        assert len(net.vertices) == 31

    def test_missing_weight_level(self):
        with pytest.raises(WeightUndefined):
            build_tree(3, LevelWeights.explicit([1.0]))

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            build_tree(0, LevelWeights.constant(1.0))


class TestClosedFormEnergy:
    def test_geometric_level_three(self):
        got = tree_delta_norm_closed((0, 1, 0), LevelWeights.geometric(0.5), depth=4)
        assert got == pytest.approx(20.0)

    def test_constant_weights(self):
        got = tree_delta_norm_closed((1, 1), LevelWeights.constant(1.0), depth=4)
        assert got == pytest.approx(3.0)

    def test_leaf_is_boundary(self):
        with pytest.raises(BoundaryWord):
            tree_delta_norm_closed((0, 0, 0), LevelWeights.constant(1.0), depth=3)

    def test_root_is_not_covered(self):
        with pytest.raises(ValueError):
            tree_delta_norm_closed((), LevelWeights.constant(1.0), depth=3)

    def test_overflowing_energy_raises_as_the_histogram_does(self):
        # 1/r(1) is finite, but 2/r(1) is not
        weights = LevelWeights.explicit([1.0, 6e-309, 1.0])
        with pytest.raises(WeightUndefined, match="level 1"):
            energy_histogram(3, weights)
        with pytest.raises(WeightUndefined, match="level 1"):
            tree_delta_norm_closed((0,), weights, 3)

    @pytest.mark.parametrize("weights", [LevelWeights.geometric(0.5), LevelWeights.constant(1.0)])
    def test_matches_network_solver_exactly(self, weights):
        depth = 6
        net = build_tree(depth, weights)
        for word in net.vertices:
            if 1 <= len(word) < depth:
                closed = tree_delta_norm_closed(word, weights, depth)
                solver = delta_norm_sq(net, word)
                assert abs(closed - solver) <= 1e-12 * closed


class TestBoundaryResistance:
    def test_series_sum_matches_network(self):
        weights = LevelWeights.geometric(0.5)
        net = build_tree(7, weights)
        w1 = (0, 0, 1, 0, 1, 1, 0)
        w2 = (0, 0, 1, 1, 0, 0, 1)
        br = boundary_resistance(w1, w2, weights)
        assert br.meet == 3
        assert br.network_value == resistance(net, w1, w2)
        assert br.network_value == pytest.approx(br.series_sum, rel=1e-9)
        # series circuit through the meet vertex, twice the level tail
        assert br.series_sum == pytest.approx(2 * sum(0.5 ** k for k in range(3, 7)))

    @pytest.mark.parametrize(
        "weights",
        [LevelWeights.geometric(0.5), LevelWeights.constant(1.0),
         LevelWeights.explicit([0.9 ** k * (1 + 0.1 * (k % 3)) for k in range(12)])],
        ids=["geometric", "constant", "explicit"],
    )
    def test_network_value_cross_check_by_direct_solve(self, weights):
        # the default solve runs over heap indices; it must give the bits of
        # a solve on build_tree's word-labelled network, for every word pair
        # up to depth 4 and seeded pairs at depths 5 to 12
        rng = random.Random(15)
        pairs = [pair for depth in range(1, 5)
                 for pair in itertools.combinations(itertools.product((0, 1), repeat=depth), 2)]
        pairs.append(((0,) * 5, (1,) * 5))
        for depth in range(5, 13):
            for _ in range(2):
                w1, w2 = (tuple(rng.getrandbits(1) for _ in range(depth)) for _ in "12")
                pairs.append((w1, w2 if w2 != w1 else w1[:-1] + (1 - w1[-1],)))
        trees = {depth: build_tree(depth, weights) for depth in range(1, 13)}
        for w1, w2 in pairs:
            net = trees[len(w1)]
            br = boundary_resistance(w1, w2, weights)
            assert br.network_value == resistance(net, w1, w2)
            assert br.network_value == pytest.approx(br.series_sum, rel=1e-9)
        if weights.kind == "constant":
            assert boundary_resistance((0,) * 5, (1,) * 5, weights).series_sum == pytest.approx(10.0)

    def test_default_solve_builds_no_word_labels(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("build_tree called")

        monkeypatch.setattr(tree, "build_tree", refuse)
        weights = LevelWeights.geometric(0.5)
        br = boundary_resistance((0, 1, 1), (1, 0, 1), weights)
        assert br.network_value == pytest.approx(br.series_sum, rel=1e-12)

    def test_default_solve_refuses_words_not_over_0_1(self):
        weights = LevelWeights.constant(1.0)
        for w1, w2 in [((0, 2), (0, 1)), ((0, 1), (-1, 1)), ("01", "10")]:
            with pytest.raises(ValueError):
                boundary_resistance(w1, w2, weights)

    def test_tail_closed_form(self):
        weights = LevelWeights.geometric(0.5)
        br = boundary_resistance((0, 0), (0, 1), weights)
        assert br.tail_value == pytest.approx(2 * (0.5 / 0.5))  # 2 q^1/(1-q)
        # past depth 12 no network is solved
        deep = boundary_resistance((0,) * 13, (0, 1) + (0,) * 11, weights)
        assert deep.network_value is None
        assert deep.tail_value == br.tail_value

    def test_validation(self):
        weights = LevelWeights.geometric(0.5)
        with pytest.raises(ValueError, match="distinct"):
            boundary_resistance((0, 1), (0, 1), weights)
        with pytest.raises(ValueError, match="same depth"):
            boundary_resistance((0,), (0, 1), weights)

    def test_completion_is_cauchy_for_summable_weights(self):
        # distances along one ray fall below 1e-6 once the tail does
        weights = LevelWeights.geometric(0.5)
        depth_needed = 22  # 2 * 0.5^n / (1 - 0.5) < 1e-6 from here on
        assert 2 * weights.tail_sum(depth_needed) < 1e-6
        truncation = 30
        w_long = (0,) * truncation
        w_fork = (0,) * depth_needed + (1,) + (0,) * (truncation - depth_needed - 1)
        br = boundary_resistance(w_long, w_fork, weights)
        assert br.series_sum < 1e-6

    def test_truncated_sum_converges_to_tail(self):
        weights = LevelWeights.geometric(0.5)
        meets = [0, 2, 5]
        for m in meets:
            w1 = (0,) * 24
            w2 = (0,) * m + (1,) + (0,) * (24 - m - 1)
            br = boundary_resistance(w1, w2, weights)
            assert br.meet == m
            assert abs(br.series_sum - br.tail_value) < 1e-6


class TestTreeNetworkInterchange:
    def test_word_labeled_network_round_trips_through_json(self):
        import json

        from rkhskit import Network

        net = build_tree(3, LevelWeights.geometric(0.5))
        doc = json.loads(json.dumps(net.to_json()))
        again = Network.from_json(doc)
        assert again.vertices.labels == net.vertices.labels
        assert again.base == ()
        assert resistance(again, (0, 0, 0), (1, 1, 1)) == pytest.approx(
            resistance(net, (0, 0, 0), (1, 1, 1)), rel=1e-12
        )


class TestHistogram:
    def test_geometric_depth_four(self):
        rows = energy_histogram(4, LevelWeights.geometric(0.5))
        assert [(r.level, r.energy, r.multiplicity) for r in rows] == [
            (1, 5.0, 2),
            (2, 10.0, 4),
            (3, 20.0, 8),
        ]
        assert rows[0].uses_level0 and not rows[1].uses_level0

    def test_constant_weights_flat(self):
        rows = energy_histogram(5, LevelWeights.constant(1.0))
        assert all(r.energy == pytest.approx(3.0) for r in rows)

    def test_multiplicities_sum(self):
        for depth in (2, 5, 9):
            rows = energy_histogram(depth, LevelWeights.geometric(0.5))
            assert sum(r.multiplicity for r in rows) == 2 ** depth - 2

    def test_summable_weights_blow_up(self):
        rows = energy_histogram(10, LevelWeights.geometric(0.5))
        energies = [r.energy for r in rows]
        assert all(b > a for a, b in zip(energies, energies[1:]))

    def test_depth_guard(self):
        with pytest.raises(ValueError):
            energy_histogram(1, LevelWeights.constant(1.0))

    def test_energy_overflow_names_its_level(self):
        # 1/r = 1e308 is finite, but 2/r + 1/r is not
        with pytest.raises(WeightUndefined, match="level 1"):
            energy_histogram(3, LevelWeights.constant(1e-308))
