"""Gram assembly, definiteness verdicts, delta solves, dual bases."""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rkhskit import (
    BridgeKernel,
    BrownianKernel,
    CoefficientVector,
    DomainMismatch,
    GramMatrix,
    NotInRange,
    NotPSD,
    NotPositiveSemidefinite,
    PointSet,
    SemiDefinite,
    SingularGram,
    StrictlyPD,
    TableKernel,
    assemble_gram,
    check_pd,
    dual_basis,
    log_det,
    projection_norm_sq,
    solve_delta,
)
import rkhskit.core as core
from rkhskit.core import _unpermuted_factor


def random_pd_gram(rng, n):
    a = rng.normal(size=(n, n))
    k = a.T @ a + 1e-3 * np.eye(n)
    k = np.triu(k)
    k = k + np.triu(k, 1).T  # exactly symmetric
    return GramMatrix(PointSet(tuple(range(n))), k)


class TestPointSet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            PointSet((1, 2, 1))

    def test_int_and_float_labels_collide_like_python_equality(self):
        with pytest.raises(ValueError, match="duplicate"):
            PointSet((2, 2.0))

    def test_index_and_prefix(self):
        pts = PointSet((5, 1, 3))
        assert pts.index(3) == 2
        assert pts.prefix(2).labels == (5, 1)
        with pytest.raises(ValueError):
            pts.index(9)

    @pytest.mark.parametrize(
        "labels",
        [
            (5, 1, 3, 0),
            (0.5, -2.0, 1e300, 3.25),
            ("b", "a", "", "c"),
            ((0, 1), (1,), (), (1, 0, 1)),
            (np.int64(7), np.float64(0.25), np.int32(-3), np.float32(1.5)),
            ([0, 1], [1], [np.int64(1), 0]),
        ],
    )
    def test_prefix_equals_fresh_point_set(self, labels):
        pts = PointSet(labels)
        for n in range(len(labels) + 1):
            got, want = pts.prefix(n), PointSet(pts.labels[:n])
            assert got.labels == want.labels
            assert got._index == want._index
            assert got == want and hash(got) == hash(want)
            for label in labels[:n]:
                assert label in got and got.index(label) == want.index(label)
            for label in labels[n:]:
                assert label not in got


class TestAssembleGram:
    def test_brownian_pair(self):
        gram = assemble_gram(BrownianKernel(), [1, 2])
        assert gram.matrix.tolist() == [[1.0, 1.0], [1.0, 2.0]]

    def test_single_point(self):
        gram = assemble_gram(BrownianKernel(), [7.0])
        assert gram.matrix.tolist() == [[7.0]]

    def test_bridge_pair(self):
        gram = assemble_gram(BridgeKernel(), [0.25, 0.5])
        assert gram.matrix.tolist() == [[3 / 16, 1 / 8], [1 / 8, 1 / 4]]

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            assemble_gram(BrownianKernel(), [])

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            assemble_gram(BrownianKernel(), [0.0, 1.0])
        with pytest.raises(DomainMismatch):
            assemble_gram(BridgeKernel(), [0.5, 1.5])

    def test_assembled_matrix_is_bitwise_symmetric(self):
        rng = np.random.default_rng(7)
        pts = np.sort(rng.uniform(0.1, 10.0, size=9))
        gram = assemble_gram(BrownianKernel(), pts)
        assert np.array_equal(gram.matrix, gram.matrix.T)

    def test_matrix_is_readonly(self):
        gram = assemble_gram(BrownianKernel(), [1, 2])
        with pytest.raises(ValueError):
            gram.matrix[0, 0] = 5.0


class TestCheckPD:
    def test_strictly_pd_with_unit_determinant(self):
        gram = GramMatrix(PointSet((0, 1)), [[1.0, 1.0], [1.0, 2.0]])
        verdict = check_pd(gram)
        assert isinstance(verdict, StrictlyPD)
        assert verdict.logdet == pytest.approx(0.0, abs=1e-12)

    def test_rank_one_is_semidefinite(self):
        gram = GramMatrix(PointSet((0, 1)), [[1.0, 1.0], [1.0, 1.0]])
        verdict = check_pd(gram)
        assert verdict == SemiDefinite(rank=1)

    def test_indefinite_reports_witness(self):
        gram = GramMatrix(PointSet((0, 1)), [[0.0, 1.0], [1.0, 0.0]])
        verdict = check_pd(gram)
        assert isinstance(verdict, NotPSD)
        assert verdict.witness == 1

    def test_negative_diagonal_is_not_psd(self):
        gram = GramMatrix(PointSet((0,)), [[-1.0]])
        assert isinstance(check_pd(gram), NotPSD)

    def test_identity(self):
        gram = GramMatrix(PointSet((0, 1, 2)), np.eye(3))
        verdict = check_pd(gram)
        assert isinstance(verdict, StrictlyPD)
        assert verdict.logdet == pytest.approx(0.0, abs=1e-14)


class TestIntegerGramVerdicts:
    """``H H^T`` for a small integer ``H`` is exact in floating point and has
    the rank of ``H``: strictly PD at full rank, semidefinite below it."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(st.data())
    def test_verdict_and_rank_match_the_integer_factor(self, data):
        n = data.draw(st.integers(min_value=1, max_value=12), label="n")
        r = data.draw(st.integers(min_value=1, max_value=12), label="r")
        entries = data.draw(st.lists(st.integers(-3, 3), min_size=n * r, max_size=n * r))
        h = np.asarray(entries, dtype=float).reshape(n, r)
        gram = GramMatrix(PointSet(tuple(range(n))), h @ h.T)
        verdict = check_pd(gram)
        rank = int(np.linalg.matrix_rank(h))
        if rank == n:
            assert isinstance(verdict, StrictlyPD)
        else:
            assert verdict == SemiDefinite(rank=rank)
        # the factor the sampler and the semidefinite solve read spans K
        lo = _unpermuted_factor(gram.factorization())
        bound = 1e-12 * (1.0 + float(np.abs(gram.matrix).max()))
        np.testing.assert_allclose(lo @ lo.T, gram.matrix, rtol=0, atol=bound)


class TestSolveDelta:
    def test_two_by_two(self):
        gram = GramMatrix(PointSet(("x1", "x2")), [[1.0, 1.0], [1.0, 2.0]])
        zeta = solve_delta(gram, "x1")
        np.testing.assert_allclose(zeta.values, [2.0, -1.0], rtol=1e-12)

    def test_scalar(self):
        gram = GramMatrix(PointSet((3.0,)), [[4.0]])
        zeta = solve_delta(gram, 3.0)
        assert zeta.values[0] == pytest.approx(0.25)

    def test_brownian_triple_has_flat_tail(self):
        gram = assemble_gram(BrownianKernel(), [1, 2, 3])
        zeta = solve_delta(gram, 1)
        np.testing.assert_allclose(zeta.values, [2.0, -1.0, 0.0], atol=1e-12)

    def test_residual_contract_on_random_pd(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            gram = random_pd_gram(rng, int(rng.integers(2, 10)))
            target = int(rng.integers(0, gram.size))
            zeta = solve_delta(gram, target)
            b = np.zeros(gram.size)
            b[target] = 1.0
            resid = np.abs(gram.matrix @ zeta.values - b).max()
            assert resid <= 1e-9 * (1.0 + np.abs(gram.matrix).max())

    def test_semidefinite_target_out_of_span(self):
        gram = GramMatrix(PointSet((0, 1)), [[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NotInRange):
            solve_delta(gram, 0)

    def test_semidefinite_target_in_span(self):
        gram = GramMatrix(PointSet((0, 1)), [[1.0, 0.0], [0.0, 0.0]])
        zeta = solve_delta(gram, 0)
        np.testing.assert_allclose(zeta.values, [1.0, 0.0], atol=1e-12)
        assert projection_norm_sq(gram, 0) == pytest.approx(1.0)

    def test_indefinite_raises(self):
        gram = GramMatrix(PointSet((0, 1)), [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NotPositiveSemidefinite):
            solve_delta(gram, 0)

    def test_unknown_target(self):
        gram = GramMatrix(PointSet((0, 1)), np.eye(2))
        with pytest.raises(ValueError):
            solve_delta(gram, 9)


class TestRangeToleranceIsScaleFree:
    """The semidefinite solve compares RANGE_TOL with |e_t - P e_t|, where P
    projects onto the factor's column span.  Scaling K by a power of 4
    changes neither that span nor the relative pivot threshold, so the
    verdicts stay bit for bit and every value scales exactly."""

    @staticmethod
    def _outcomes(k):
        gram = GramMatrix(PointSet(tuple(range(len(k)))), k)
        out = []
        for t in range(len(k)):
            try:
                out.append(projection_norm_sq(gram, t))
            except (NotInRange, NotPositiveSemidefinite) as err:
                out.append(type(err).__name__)
        return check_pd(gram), out

    def test_scaled_tables_keep_verdicts_and_scale_values(self):
        rng = np.random.default_rng(2015)
        excluded = 0
        for _ in range(300):
            n = int(rng.integers(3, 12))
            f = rng.integers(-3, 4, size=(n, int(rng.integers(1, n)))).astype(float)
            k = f @ f.T   # exact integers of rank below n
            verdict, values = self._outcomes(k)
            excluded += values.count("NotInRange")
            for scale in (4.0 ** 40, 4.0 ** -40):
                scaled_verdict, scaled = self._outcomes(k * scale)
                assert scaled_verdict == verdict
                assert scaled == [v if isinstance(v, str) else v / scale for v in values]
        assert excluded > 0   # both branches of the range test ran


class TestProjectionNorm:
    def test_examples(self):
        gram = GramMatrix(PointSet((0, 1)), [[1.0, 1.0], [1.0, 2.0]])
        assert projection_norm_sq(gram, 0) == pytest.approx(2.0, rel=1e-12)
        scalar = GramMatrix(PointSet((0,)), [[5.0]])
        assert projection_norm_sq(scalar, 0) == pytest.approx(0.2)

    def test_brownian_pair_closed_form(self):
        gram = assemble_gram(BrownianKernel(), [1, 2])
        # x2 / (x1 (x2 - x1))
        assert projection_norm_sq(gram, 1) == pytest.approx(2.0, rel=1e-12)

    def test_strictly_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            gram = random_pd_gram(rng, 6)
            assert projection_norm_sq(gram, 3) > 0


class TestDualBasis:
    def test_identity_kernel(self):
        gram = GramMatrix(PointSet((0, 1, 2)), np.eye(3))
        rows = dual_basis(gram)
        np.testing.assert_allclose([r.values for r in rows], np.eye(3), atol=1e-14)

    def test_two_by_two_rows(self):
        gram = GramMatrix(PointSet((0, 1)), [[1.0, 1.0], [1.0, 2.0]])
        rows = dual_basis(gram)
        np.testing.assert_allclose(rows[0].values, [2.0, -1.0], rtol=1e-12)
        np.testing.assert_allclose(rows[1].values, [-1.0, 1.0], rtol=1e-12)

    def test_pairing_is_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            gram = random_pd_gram(rng, int(rng.integers(2, 9)))
            rows = np.array([r.values for r in dual_basis(gram)])
            err = np.abs(rows @ gram.matrix - np.eye(gram.size)).max()
            assert err <= 1e-9

    def test_requires_strictly_pd(self):
        gram = GramMatrix(PointSet((0, 1)), [[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularGram):
            dual_basis(gram)


class TestLogDet:
    def test_identity_is_zero(self):
        gram = GramMatrix(PointSet(tuple(range(6))), np.eye(6))
        assert log_det(gram) == pytest.approx(0.0, abs=1e-12)

    def test_brownian_unit_gaps(self):
        gram = assemble_gram(BrownianKernel(), [1, 2, 3])
        assert log_det(gram) == pytest.approx(0.0, abs=1e-12)

    def test_brownian_two_points(self):
        gram = assemble_gram(BrownianKernel(), [2, 5])
        assert log_det(gram) == pytest.approx(math.log(6.0), rel=1e-12)

    def test_singular_raises(self):
        gram = GramMatrix(PointSet((0, 1)), [[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularGram):
            log_det(gram)


class TestInvariants:
    def test_quadratic_form_nonnegative(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            gram = random_pd_gram(rng, 7)
            c = rng.normal(size=7)
            assert c @ gram.matrix @ c >= 0.0

    def test_self_duality_of_projection(self):
        # zeta(target) equals the full double sum of zeta against the kernel
        rng = np.random.default_rng(23)
        for _ in range(30):
            gram = random_pd_gram(rng, int(rng.integers(2, 9)))
            target = int(rng.integers(0, gram.size))
            zeta = solve_delta(gram, target).values
            quad = zeta @ gram.matrix @ zeta
            assert abs(quad - zeta[target]) <= 1e-9 * (1.0 + abs(zeta[target]))

    def test_cramer_consistency(self):
        # projection norm equals minor-over-determinant, by an independent
        # numpy determinant oracle
        rng = np.random.default_rng(29)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            gram = random_pd_gram(rng, n)
            target = int(rng.integers(0, n))
            keep = [i for i in range(n) if i != target]
            minor = gram.matrix[np.ix_(keep, keep)]
            ratio = np.linalg.det(minor) / np.linalg.det(gram.matrix)
            got = projection_norm_sq(gram, target)
            assert abs(got - ratio) <= 1e-8 * abs(ratio)

    def test_factorization_computed_once_across_threads(self):
        gram = random_pd_gram(np.random.default_rng(1), 40)
        results = []

        def work():
            results.append(gram.factorization())

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r is results[0] for r in results)


class TestCoefficientVector:
    def test_length_checked(self):
        with pytest.raises(ValueError):
            CoefficientVector(PointSet((0, 1)), [1.0])

    def test_label_lookup(self):
        cv = CoefficientVector(PointSet(("a", "b")), [2.0, -1.0])
        assert cv["b"] == -1.0


class TestExactSymmetry:
    """One square-tile test gives the verdict of ``np.array_equal(m, m.T)``
    for Gram matrices and kernel tables alike."""

    @staticmethod
    def _symmetric(n, seed):
        k = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, n))
        return k + k.T

    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 255, 256, 257, 600])
    def test_symmetric_passes(self, n):
        m = self._symmetric(n, n)
        assert core._exactly_symmetric(m)
        GramMatrix(PointSet(range(n)), m)
        TableKernel(range(n), m)

    # entries on each side of a tile edge (128) and of a panel edge (256),
    # the corners, and one in the partial last tile: each asymmetric entry,
    # in either triangle, is found
    @pytest.mark.parametrize("i, j", [(127, 128), (128, 127), (255, 256), (256, 255), (255, 0), (0, 256), (599, 0),
                                      (0, 599), (300, 299), (590, 530)])
    def test_one_asymmetric_entry_fails(self, i, j):
        m = self._symmetric(600, 1)
        m[i, j] = np.nextafter(m[i, j], 2.0)
        assert core._exactly_symmetric(m) is np.array_equal(m, m.T) is False
        with pytest.raises(ValueError, match="^Gram matrices must be exactly symmetric$"):
            GramMatrix(PointSet(range(600)), m)
        with pytest.raises(ValueError, match="^kernel table must be symmetric$"):
            TableKernel(range(600), m)

    @pytest.mark.parametrize("i, j", [(0, 0), (256, 256), (255, 256), (599, 3)])
    def test_nan_fails_even_where_mirrored(self, i, j):
        # a NaN never equals itself, so a symmetric NaN entry fails too
        m = self._symmetric(600, 2)
        m[i, j] = m[j, i] = np.nan
        assert core._exactly_symmetric(m) is np.array_equal(m, m.T) is False
        with pytest.raises(ValueError, match="exactly symmetric"):
            GramMatrix(PointSet(range(600)), m)

    def test_negative_zero_equals_zero(self):
        m = np.zeros((300, 300))
        m[280, 10] = -0.0
        assert core._exactly_symmetric(m) is np.array_equal(m, m.T) is True


class TestTableKernel:
    def test_requires_symmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            TableKernel((0, 1), [[1.0, 0.5], [0.4, 1.0]])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_requires_finite_entries(self, bad):
        # checked before symmetry, so a NaN entry is not called asymmetric
        with pytest.raises(ValueError, match="^kernel table entries must be finite$"):
            TableKernel((0, 1), [[1.0, 0.5], [0.5, bad]])

    def test_subset_gram(self):
        table = TableKernel((0, 1, 2), np.diag([1.0, 2.0, 3.0]))
        gram = assemble_gram(table, [2, 0])
        assert gram.matrix.tolist() == [[3.0, 0.0], [0.0, 1.0]]

    def test_out_of_table_label(self):
        table = TableKernel((0, 1), np.eye(2))
        with pytest.raises(DomainMismatch):
            assemble_gram(table, [0, 5])
