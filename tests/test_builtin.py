"""Closed-form oracles for the Brownian, bridge, and binomial kernels."""

import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import rkhskit.builtin as builtin
from _fractions import fraction_inverse_diagonal
from rkhskit import (
    BinomialKernel,
    BoundaryIndex,
    BrownianKernel,
    BridgeKernel,
    DomainMismatch,
    PascalMatrix,
    assemble_gram,
    binomial_basis_eval,
    binomial_eval,
    binomial_partial_norm,
    bm_delta_norm_sq,
    bm_det,
    bm_log_det,
    bridge_delta_norm_sq,
    bridge_det,
    bridge_log_det,
    log_det,
    pascal_factorization,
    projection_norm_sq,
)


def brute_force_norm(kernel, points, target):
    """Independent oracle: dense numpy solve of the indicator system."""
    pts = list(points)
    k = np.array([[kernel(x, y) for y in pts] for x in pts])
    b = np.zeros(len(pts))
    b[pts.index(target)] = 1.0
    return float(np.linalg.solve(k, b)[pts.index(target)])


class TestBrownianNorms:
    def test_first_point(self):
        assert bm_delta_norm_sq([1, 2, 3], 0) == pytest.approx(2.0)

    def test_interior_sparse(self):
        assert bm_delta_norm_sq([1, 3, 6], 1) == pytest.approx(5 / 6)

    def test_interior_vs_brute_force(self):
        got = bm_delta_norm_sq([1, 2, 3, 4], 1)
        assert got == pytest.approx(2.0)
        assert got == pytest.approx(brute_force_norm(BrownianKernel(), [1, 2, 3, 4], 2), rel=1e-12)

    def test_last_point_has_no_closed_form(self):
        with pytest.raises(BoundaryIndex):
            bm_delta_norm_sq([1, 2, 3], 2)
        with pytest.raises(BoundaryIndex):
            bm_delta_norm_sq([4.0], 0)

    def test_requires_increasing_points(self):
        with pytest.raises(ValueError):
            bm_delta_norm_sq([2, 1, 3], 0)

    def test_random_sets_match_gram_solves(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            n = int(rng.integers(3, 13))
            pts = np.sort(rng.uniform(0.05, 20.0, size=n))
            pts = np.unique(pts)
            gram = assemble_gram(BrownianKernel(), pts)
            for i in range(len(pts) - 1):
                closed = bm_delta_norm_sq(pts, i)
                solved = projection_norm_sq(gram, pts[i])
                assert abs(solved - closed) <= 1e-9 * closed


class TestBrownianDeterminants:
    def test_examples(self):
        assert bm_det([1, 2, 3]) == pytest.approx(1.0)
        assert bm_det([4.5]) == pytest.approx(4.5)
        assert bm_det([2, 5]) == pytest.approx(6.0)

    def test_log_det_matches_gram(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            n = int(rng.integers(1, 13))
            pts = np.unique(rng.uniform(0.01, 50.0, size=n))
            gram = assemble_gram(BrownianKernel(), pts)
            assert abs(log_det(gram) - bm_log_det(pts)) <= 1e-9 * (1.0 + abs(bm_log_det(pts)))


class TestBrownianStabilization:
    def test_value_freezes_once_both_neighbors_present(self):
        pts = list(range(1, 9))
        target = 3  # index 2; neighbors are 2 and 4
        values = []
        for n in range(3, 9):
            gram = assemble_gram(BrownianKernel(), pts[:n])
            values.append(projection_norm_sq(gram, target))
        # stage {1,2,3}: target is the right endpoint, norm 1/(x3-x2)
        assert values[0] == pytest.approx(1.0, rel=1e-9)
        for later in values[1:]:
            assert later == pytest.approx(2.0, rel=1e-9)

    def test_integer_lattice_laplacian_identity(self):
        # pairing of (2 k_n - k_{n+1} - k_{n-1}) against k_m is the indicator
        pts = list(range(1, 13))
        gram = assemble_gram(BrownianKernel(), pts).matrix
        for n in range(1, 11):
            coeff = np.zeros(len(pts))
            i = pts.index(n)
            coeff[i] = 2.0
            coeff[i + 1] = -1.0
            if n > 1:
                coeff[i - 1] = -1.0
            pairing = gram @ coeff
            for m in range(1, 11):
                want = 1.0 if m == n else 0.0
                assert pairing[pts.index(m)] == pytest.approx(want, abs=1e-12)


class TestBridge:
    def test_determinant_examples(self):
        assert bridge_det([0.5]) == pytest.approx(0.25)
        assert bridge_det([0.25, 0.5]) == pytest.approx(1 / 32)
        assert bridge_det([0.25, 0.5, 0.75]) == pytest.approx(1 / 256)

    def test_norm_examples(self):
        assert bridge_delta_norm_sq([0.25, 0.5, 0.75], 1) == pytest.approx(8.0)
        assert bridge_delta_norm_sq([0.5], 0) == pytest.approx(4.0)
        # matches the 1x1 Gram inverse
        assert bridge_delta_norm_sq([0.5], 0) == pytest.approx(1.0 / BridgeKernel()(0.5, 0.5))

    def test_norm_blows_up_toward_one(self):
        pts = [1 - 2.0 ** (-j) for j in range(1, 11)]
        norms = [bridge_delta_norm_sq(pts, i) for i in range(len(pts))]
        assert all(b > a for a, b in zip(norms, norms[1:]))
        assert norms[-1] > 1000

    def test_random_sets_match_gram_solves_at_every_index(self):
        # both endpoints are pinned, so the closed form covers all indices
        rng = np.random.default_rng(77)
        for _ in range(25):
            n = int(rng.integers(1, 13))
            pts = np.unique(rng.uniform(0.02, 0.98, size=n))
            gram = assemble_gram(BridgeKernel(), pts)
            for i, x in enumerate(pts):
                closed = bridge_delta_norm_sq(pts, i)
                solved = projection_norm_sq(gram, x)
                assert abs(solved - closed) <= 1e-9 * closed

    def test_log_det_matches_gram(self):
        rng = np.random.default_rng(78)
        for _ in range(25):
            n = int(rng.integers(1, 13))
            pts = np.unique(rng.uniform(0.02, 0.98, size=n))
            gram = assemble_gram(BridgeKernel(), pts)
            want = bridge_log_det(pts)
            assert abs(log_det(gram) - want) <= 1e-9 * (1.0 + abs(want))

    @pytest.mark.parametrize("n", [1, 2, 97, 512])
    def test_gram_keeps_the_bits_of_its_two_temporary_form(self, n):
        # the in-place subtraction rounds each entry as the old expression did
        rng = np.random.default_rng(n)
        x = rng.uniform(0.0, 1.0, n)
        x[0] = 0.5
        old = np.minimum.outer(x, x) - np.outer(x, x)
        assert BridgeKernel().gram(list(x)).tobytes() == old.tobytes()

    def test_gram_holds_one_temporary(self):
        # the result and one block of 128 rows of products: no second
        # n-by-n array at the peak
        n = 1000
        x = [float(v) for v in np.linspace(0.001, 0.999, n)]
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            BridgeKernel().gram(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * n * n


class TestBinomialKernel:
    def test_eval_examples(self):
        assert binomial_eval(0, 0) == 1
        assert binomial_eval(1, 1) == 2
        assert binomial_eval(2, 3) == 10

    def test_symmetry_exact(self):
        for x in range(8):
            for y in range(8):
                assert binomial_eval(x, y) == binomial_eval(y, x)

    def test_eval_equals_sum_of_products(self):
        # the defining sum is the oracle for the closed form C(x + y, x)
        for x in range(61):
            for y in range(61):
                expected = sum(math.comb(x, n) * math.comb(y, n) for n in range(min(x, y) + 1))
                assert binomial_eval(x, y) == expected

    def test_basis_eval(self):
        assert all(binomial_basis_eval(0, x) == 1 for x in range(10))
        assert binomial_basis_eval(2, 4) == 6
        assert binomial_basis_eval(5, 3) == 0

    def test_exact_gram_matches_float_gram(self):
        kernel = BinomialKernel()
        labels = [0, 1, 2, 5]
        exact = kernel.exact_gram(labels)
        assert np.array_equal(np.array(exact, dtype=float), kernel.gram(labels))

    @pytest.mark.parametrize(
        "labels", [[7, 0, 3, 12], [5, 5, 0], [30, 2, 17, 2.0, 9], [0]], ids=["unsorted", "repeated", "float", "one"]
    )
    def test_exact_gram_entries_are_binomial_eval(self, labels):
        gram = BinomialKernel().exact_gram(labels)
        assert gram == [[binomial_eval(x, y) for y in labels] for x in labels]
        assert all(type(v) is int for row in gram for v in row)

    @pytest.mark.parametrize("labels", [[0, 1.5], [0, -1], [0, True]], ids=["fraction", "negative", "bool"])
    def test_exact_gram_checks_its_domain(self, labels):
        # the exact Gram converts labels with int(), so it refuses 1.5
        # itself instead of returning the Gram of [0, 1]
        with pytest.raises(DomainMismatch, match="nonnegative integers"):
            BinomialKernel().exact_gram(labels)


class TestPascal:
    def test_smallest_factorization(self):
        lower, kmat = pascal_factorization(1)
        assert lower.rows == ((1, 0), (1, 1))
        assert kmat == [[1, 1], [1, 2]]

    def test_factorization_exact_up_to_20(self):
        kernel = BinomialKernel()
        for n in (2, 7, 20):
            lower, kmat = pascal_factorization(n)
            for i in range(n + 1):
                for j in range(n + 1):
                    assert kmat[i][j] == binomial_eval(i, j)
                    direct = sum(lower.rows[i][t] * lower.rows[j][t] for t in range(n + 1))
                    assert direct == kmat[i][j]

    def test_inverse_sign_pattern(self):
        lower = PascalMatrix(2)
        assert lower.inverse_rows() == ((1, 0, 0), (-1, 1, 0), (1, -2, 1))

    def test_inverse_is_exact_inverse(self):
        for n in (1, 4, 12):
            lower = PascalMatrix(n)
            inv = lower.inverse_rows()
            for i in range(n + 1):
                for j in range(n + 1):
                    prod = sum(lower.rows[i][t] * inv[t][j] for t in range(n + 1))
                    assert prod == (1 if i == j else 0)

    def test_alternating_identity(self):
        for n in range(13):
            for m in range(n + 1):
                total = sum(
                    (-1) ** (m + j) * math.comb(n, j) * math.comb(j, m)
                    for j in range(m, n + 1)
                )
                assert total == (1 if m == n else 0)


class TestBinomialPartialNorm:
    def test_examples(self):
        assert binomial_partial_norm(0, 4) == 5
        assert binomial_partial_norm(1, 3) == 14
        assert binomial_partial_norm(2, 2) == 1

    def test_equals_sum_of_squared_binomials(self):
        for n in range(13):
            for x1 in range(n + 1):
                want = sum(math.comb(k, x1) ** 2 for k in range(x1, n + 1))
                assert binomial_partial_norm(x1, n) == want

    def test_equals_exact_inverse_diagonal(self):
        kernel = BinomialKernel()
        for n in (3, 6, 8):
            matrix = kernel.exact_gram(list(range(n + 1)))
            for x1 in range(n + 1):
                assert Fraction(binomial_partial_norm(x1, n)) == fraction_inverse_diagonal(matrix, x1)

    def test_strictly_increasing_without_bound(self):
        for x1 in range(5):
            values = [binomial_partial_norm(x1, n) for n in range(x1, x1 + 25)]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_exceeds_64_bit_range(self):
        # arbitrary precision keeps going where int64 would wrap
        assert binomial_partial_norm(17, 40) > 2 ** 63

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            binomial_partial_norm(5, 3)


# (label, coordinate, nonnegative integer): the verdicts of the numbers.Real
# checks, which the exact float and int fast paths must keep
LABEL_VERDICTS = [
    (True, False, False),
    (False, False, False),
    (np.True_, False, False),
    (0, True, True),
    (2, True, True),
    (-2, True, False),
    (2.0, True, True),
    (-0.0, True, True),
    (2.5, True, False),
    (-2.0, True, False),
    (math.nan, True, False),
    (math.inf, True, False),
    (-math.inf, True, False),
    (np.float64(3.0), True, True),
    (np.float64(math.nan), True, False),
    (np.float32(0.5), True, False),
    (np.int64(3), True, True),
    (np.int64(-1), True, False),
    (Fraction(4, 2), True, True),
    (Fraction(1, 2), True, False),
    (Fraction(-2), True, False),
    (Decimal("2"), False, False),
    (Decimal("0.5"), False, False),
    ("2", False, False),
    (None, False, False),
]


@pytest.mark.parametrize("label, coordinate, nonneg_int", LABEL_VERDICTS, ids=repr)
def test_label_checks_keep_their_verdicts(label, coordinate, nonneg_int):
    assert bool(builtin._is_coordinate(label)) is coordinate
    assert bool(builtin._is_nonneg_int(label)) is nonneg_int
    assert bool(BinomialKernel().contains(label)) is nonneg_int
    assert bool(BrownianKernel().contains(label)) is bool(coordinate and 0 < label < math.inf)
    assert bool(BridgeKernel().contains(label)) is bool(coordinate and 0 < label < 1)
