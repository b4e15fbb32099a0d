"""Seeded Gaussian field sampling and its empirical checks."""

from unittest import mock

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from _graphs import random_connected_network
from rkhskit import gff
from rkhskit import (
    BrownianKernel,
    GramMatrix,
    LevelWeights,
    MissingNeighbor,
    Network,
    NotPositiveSemidefinite,
    PointSet,
    assemble_gram,
    build_tree,
    covariance_standard_error,
    covariance_triangle_check,
    delta_norm_sq,
    delta_realization,
    empirical_covariance,
    empirical_mean,
    green_kernel,
    sample,
)


@pytest.fixture(scope="module")
def path_gram():
    pts = [1.0, 2.0]
    return assemble_gram(BrownianKernel(), pts)


class TestDeterminism:
    def test_same_seed_is_bit_exact(self, path_gram):
        a = sample(path_gram, 500, 42)
        b = sample(path_gram, 500, 42)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seed_differs(self, path_gram):
        a = sample(path_gram, 500, 42)
        b = sample(path_gram, 500, 43)
        assert not np.array_equal(a.samples, b.samples)

    def test_prefix_property_of_row_streams(self, path_gram):
        # the 100-draw run equals the first 100 of 300 draws bit for bit,
        # normals and draws alike (test_longer_run_starts_with_shorter_within_rounding)
        a = sample(path_gram, 100, 3)
        b = sample(path_gram, 300, 3)
        assert np.array_equal(b.samples[:100], a.samples)


def rank_deficient_gram():
    """K = F F^T with an integer 70 x 5 F: exact entries, rank 5."""
    f = np.random.default_rng(33).integers(-3, 4, size=(70, 5)).astype(float)
    return GramMatrix(PointSet(tuple(range(70))), f @ f.T)


PREFIXES = [1, 7, 255, 256, 257, 1000, 2999]


def test_longer_run_starts_with_shorter_within_rounding():
    # the normals are one stream, and every product with the factor has one
    # shape whatever the draw count, so row i depends on (gram, seed, i) only:
    # the rounding allowed between a longer and a shorter run is none at all
    kernel = green_kernel(build_tree(6, LevelWeights.geometric(0.5)))
    grams = {"tree-6": assemble_gram(kernel, kernel.points), "rank-5": rank_deficient_gram()}
    assert grams["rank-5"].factorization().upper.shape[0] == 5
    for name, gram in grams.items():
        rank = gram.factorization().upper.shape[0]
        assert np.array_equal(gff._normal_rows(11, 3000, rank)[:7], gff._normal_rows(11, 7, rank)), name
        long = sample(gram, 3000, 11).samples
        for n in PREFIXES:
            assert np.array_equal(long[:n], sample(gram, n, 11).samples), (name, n)


def oracle_uniforms(seed, n, cols):
    """numpy's own Philox4x64-10 stream, key seed and counter 0, n rows of
    cols words each, as uniforms (u >> 11) * 2^-53."""
    words = np.random.Philox(key=seed).random_raw(n * cols).reshape(n, cols)
    return (words >> np.uint64(11)).astype(np.int64) * 2.0 ** -53


EDGE_SEEDS = [0, 2**64 - 1, 2**64, 2**128 - 1]


class TestPhiloxStream:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**128 - 1)),
        n=st.integers(1, 50),
        cols=st.integers(1, 70),
    )
    def test_uniforms_equal_numpy_philox(self, seed, n, cols):
        # with the inverse CDF replaced by the identity, _normal_rows returns
        # its uniforms (clipped away from an exact 0)
        with mock.patch.object(scipy.special, "ndtri", lambda u: u):
            got = gff._normal_rows(seed, n, cols)
        want = np.clip(oracle_uniforms(seed, n, cols), 1e-300, None)
        assert got.shape == (n, cols)
        assert (got == want).all()

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_out_of_range_raises(self, path_gram, seed):
        with pytest.raises(ValueError):
            gff._normal_rows(seed, 3, 2)
        with pytest.raises(ValueError):
            sample(path_gram, 3, seed)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**128 - 1)),
        n=st.integers(1, 50),
        cols=st.integers(1, 70),
        data=st.data(),
    )
    def test_any_row_is_generated_on_its_own(self, seed, n, cols, data):
        # row i starts at word i * cols: skip whole 4-word blocks, then the rest
        i = data.draw(st.integers(0, n - 1))
        bit_gen = np.random.Philox(key=seed)
        bit_gen.advance((i * cols) // 4)
        words = bit_gen.random_raw((i * cols) % 4 + cols)[(i * cols) % 4 :]
        alone = (words >> np.uint64(11)).astype(np.int64) * 2.0 ** -53
        with mock.patch.object(scipy.special, "ndtri", lambda u: u):
            got = gff._normal_rows(seed, n, cols)
        assert (got[i] == np.clip(alone, 1e-300, None)).all()


class TestStatistics:
    def test_identity_covariance_gives_iid_normals(self):
        gram = GramMatrix(PointSet((0, 1, 2)), np.eye(3))
        draws = sample(gram, 40000, 11)
        emp = empirical_covariance(draws)
        se = covariance_standard_error(gram, 40000)
        assert np.abs(emp - np.eye(3)).max() <= (5.0 * se).max()

    def test_brownian_pair_covariance(self, path_gram):
        n = 30000
        draws = sample(path_gram, n, 42)
        emp = empirical_covariance(draws)
        se = covariance_standard_error(path_gram, n)
        assert (np.abs(emp - path_gram.matrix) <= 5.0 * se).all()

    def test_mean_zero(self, path_gram):
        n = 30000
        draws = sample(path_gram, n, 42)
        bound = 5.0 * np.sqrt(np.diagonal(path_gram.matrix) / n)
        assert (np.abs(empirical_mean(draws)) <= bound).all()

    def test_error_shrinks_with_sample_size(self, path_gram):
        # 5-sigma bands at increasing n; each band is itself the assertion
        for n in (1000, 10000, 100000):
            draws = sample(path_gram, n, 42)
            emp = empirical_covariance(draws)
            se = covariance_standard_error(path_gram, n)
            assert (np.abs(emp - path_gram.matrix) <= 5.0 * se).all()

    def test_rank_deficient_covariance_sampled_in_span(self):
        gram = GramMatrix(PointSet((0, 1)), [[1.0, 1.0], [1.0, 1.0]])
        draws = sample(gram, 20000, 5)
        # every draw lies on the diagonal line
        assert np.abs(draws.samples[:, 0] - draws.samples[:, 1]).max() <= 1e-12
        emp = empirical_covariance(draws)
        se = covariance_standard_error(gram, 20000)
        assert (np.abs(emp - gram.matrix) <= 5.0 * se).all()

    def test_indefinite_covariance_rejected(self):
        gram = GramMatrix(PointSet((0, 1)), [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NotPositiveSemidefinite):
            sample(gram, 10, 1)

    def test_needs_at_least_one_draw(self, path_gram):
        with pytest.raises(ValueError):
            sample(path_gram, 0, 1)


@pytest.fixture(scope="module")
def path_net():
    return Network(["o", "a", "b"], "o", [("o", "a", 1.0), ("a", "b", 1.0)])


@pytest.fixture(scope="module")
def path_draws(path_net):
    kernel = green_kernel(path_net)
    gram = assemble_gram(kernel, kernel.points)
    return sample(gram, 40000, 42)


class TestDeltaRealization:
    def test_formula_on_path(self, path_net, path_draws):
        deltas = delta_realization(path_net, path_draws, "a")
        manual = 2.0 * path_draws.column("a") - path_draws.column("b")
        np.testing.assert_allclose(deltas, manual, atol=1e-12)

    def test_variance_matches_total_conductance(self, path_net, path_draws):
        n = path_draws.n
        for x in ("a", "b"):
            deltas = delta_realization(path_net, path_draws, x)
            var = float(deltas @ deltas) / n
            c = delta_norm_sq(path_net, x)
            assert abs(var - c) <= 5.0 * c * np.sqrt(2.0 / n)

    def test_pairing_with_field_is_indicator(self, path_net, path_draws):
        n = path_draws.n
        kernel = green_kernel(path_net)
        for x in ("a", "b"):
            deltas = delta_realization(path_net, path_draws, x)
            for y in ("a", "b"):
                cross = float(deltas @ path_draws.column(y)) / n
                want = 1.0 if x == y else 0.0
                c = delta_norm_sq(path_net, x)
                tol = 5.0 * np.sqrt((c * kernel(y, y) + 1.0) / n)
                assert abs(cross - want) <= tol

    def test_single_draw_guard(self, path_net):
        kernel = green_kernel(path_net)
        gram = assemble_gram(kernel, kernel.points)
        draws = sample(gram, 1, 9)
        assert delta_realization(path_net, draws, "a").shape == (1,)

    def test_missing_neighbor(self, path_net):
        kernel = green_kernel(path_net)
        gram = assemble_gram(kernel, ["a"])  # b missing from the base
        draws = sample(gram, 10, 1)
        with pytest.raises(MissingNeighbor):
            delta_realization(path_net, draws, "a")

    def test_base_vertex_rejected(self, path_net, path_draws):
        with pytest.raises(ValueError):
            delta_realization(path_net, path_draws, "o")


class TestTriangleCheck:
    def test_path_equality_case(self):
        net = Network(["o", "a", "b"], "o", [("o", "a", 1.0), ("a", "b", 1.0)])
        result = covariance_triangle_check(net, "a", "b", "b")
        assert result.holds
        assert result.margin == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_triple(self):
        net = Network(["o", "a"], "o", [("o", "a", 2.0)])
        result = covariance_triangle_check(net, "a", "a", "a")
        assert result.holds

    def test_exhaustive_on_random_graph(self):
        rng = np.random.default_rng(19)
        net = random_connected_network(rng, 8)
        for x in net.vertices:
            for y in net.vertices:
                for z in net.vertices:
                    result = covariance_triangle_check(net, x, y, z)
                    assert result.holds, (x, y, z, result.margin)
