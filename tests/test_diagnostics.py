"""Filtration traces and membership classification."""

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg.blas import dspmv, dtpsv
from scipy.linalg.lapack import dpotrf, dtrttp

import rkhskit.cli as cli
import rkhskit.core as core
import rkhskit.diagnostics as diagnostics
import rkhskit.exact as exact
from _fractions import fraction_det, fraction_inverse_diagonal
from rkhskit import (
    BinomialKernel,
    BrownianKernel,
    BridgeKernel,
    Converging,
    Diverging,
    DomainMismatch,
    Filtration,
    FiltrationTrace,
    Inconclusive,
    Kernel,
    MonotonicityViolation,
    NotPositiveSemidefinite,
    PointSet,
    SingularGram,
    Stabilized,
    TableKernel,
    TooFewStages,
    assemble_gram,
    classify,
    log_det,
    projection_norm_sq,
    trace,
)


class TestFiltration:
    def test_prefix_constructor(self):
        f = Filtration.prefixes([1, 2, 3], target=1)
        assert f.sizes == (1, 2, 3)
        assert f.points.prefix(f.sizes[1]).labels == (1, 2)

    def test_doubling_constructor(self):
        f = Filtration.doubling(list(range(20)), target=0)
        assert f.sizes == (1, 2, 4, 8, 16, 20)
        assert Filtration.doubling(range(16)).sizes == (1, 2, 4, 8, 16)
        assert Filtration.doubling([5]).sizes == (1,)

    def test_one_point_set_and_its_sizes(self):
        f = Filtration([3, 1, 2], (1, 3), target=1)
        assert f.points == PointSet((3, 1, 2))
        assert f.sizes == (1, 3)
        assert [f.points.prefix(m).labels for m in f.sizes] == [(3,), (3, 1, 2)]

    def test_rejects_non_prefix_stages(self):
        # sizes that repeat, start at 0, stop short, fall, overshoot, or are absent
        for sizes in [(1, 2, 2, 3), (0, 1, 3), (1, 2), (2, 1, 3), (1, 4), ()]:
            with pytest.raises(ValueError, match="stage sizes must increase strictly"):
                Filtration([1, 2, 3], sizes, target=1)

    def test_prefixes_hold_one_point_set(self):
        # n(n+1)/2 labels and index entries when each stage held its own
        pts = [float(v) for v in range(3000)]
        tracemalloc.start()
        try:
            Filtration.prefixes(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    @pytest.mark.parametrize("build", [Filtration.prefixes, Filtration.doubling])
    @pytest.mark.parametrize("target", [None, 1])
    def test_rejects_empty_points(self, build, target):
        with pytest.raises(ValueError, match="at least one point"):
            build([], target)

    def test_rejects_absent_target(self):
        with pytest.raises(ValueError, match="never enters"):
            Filtration.prefixes([1, 2, 3], target=7)


class TestTrace:
    def test_brownian_first_point(self):
        tr = trace(BrownianKernel(), Filtration.prefixes([1, 2, 3]))
        np.testing.assert_allclose(tr.values, [1.0, 2.0, 2.0], rtol=1e-9)
        assert tr.stage_sizes == (1, 2, 3)

    def test_single_stage(self):
        tr = trace(BrownianKernel(), Filtration.prefixes([4.0]))
        np.testing.assert_allclose(tr.values, [0.25], rtol=1e-12)

    def test_stages_without_target_are_skipped(self):
        tr = trace(BrownianKernel(), Filtration.prefixes([2, 1, 3], target=1))
        assert tr.stage_indices == (2, 3)
        # with both points present the first-point norm is already attained
        np.testing.assert_allclose(tr.values, [2.0, 2.0], rtol=1e-9)

    def test_binomial_exact_values(self):
        tr = trace(BinomialKernel(), Filtration.prefixes(list(range(5)), target=1))
        assert tr.exact_values is not None
        assert [int(v) for v in tr.exact_values] == [1, 5, 14, 30]
        np.testing.assert_allclose(tr.values, [1.0, 5.0, 14.0, 30.0])

    def test_monotonicity_violation_detected(self):
        class ShrinkingKernel(Kernel):
            # inconsistent on purpose: entries depend on the stage size, so
            # the nesting theorem fails and the guard must fire
            name = "broken"

            def gram(self, labels):
                return np.eye(len(labels)) * len(labels)

        with pytest.raises(MonotonicityViolation):
            trace(ShrinkingKernel(), Filtration.prefixes([0, 1, 2]))

    def test_monotonicity_violation_names_the_first_drop(self):
        # a drop within MONOTONE_ATOL + MONOTONE_RTOL |a| is slack, not a violation
        diagnostics._enforce_monotone([1.0, 1.0 - 1e-9, 2.0, 2.0])
        with pytest.raises(MonotonicityViolation, match=r"from 2\.0 to 1\.5 along"):
            diagnostics._enforce_monotone([1.0, 1.0 - 1e-9, 2.0, 1.5, 3.0, 0.5])

    def test_semidefinite_stage_mid_filtration(self):
        # stage 3 repeats the section at 1: its pivot in the last stage's
        # factor is zero, so the pivoted factorization and its semidefinite
        # solve take that stage
        kernel = TableKernel((0, 1, 2), [[1, 0, 0], [0, 1, 1], [0, 1, 1]])
        tr = trace(kernel, Filtration.prefixes((0, 1, 2), target=0))
        np.testing.assert_allclose(tr.values, [1.0, 1.0, 1.0], rtol=1e-12)

    def test_indefinite_stage_reports_witness(self):
        kernel = TableKernel((0, 1, 2), [[1, 0, 0], [0, 1, 2], [0, 2, 1]])
        with pytest.raises(NotPositiveSemidefinite) as info:
            trace(kernel, Filtration.prefixes((0, 1, 2), target=0))
        assert info.value.witness == 2

    def test_pd_stages_make_no_pivoted_factorizations(self, monkeypatch):
        calls = []
        original = core._pivoted_cholesky

        def counting(matrix):
            calls.append(len(matrix))
            return original(matrix)

        monkeypatch.setattr(core, "_pivoted_cholesky", counting)
        rng = np.random.default_rng(60)
        pts = [float(v) for v in rng.permutation(np.cumsum(rng.uniform(0.5, 1.5, 60)))]
        kernel, filtration = BrownianKernel(), Filtration.prefixes(pts, target=pts[0])
        assert trace(kernel, filtration).det_ratios is not None
        assert calls == []
        # a stage assembled on its own still takes the pivoted path
        projection_norm_sq(assemble_gram(kernel, filtration.points), pts[0])
        assert calls == [60]


class SetScaledKernel(BrownianKernel):
    # entries depend on the set they are assembled over, not only on their
    # pair, yet the norms still grow
    def gram(self, labels):
        return super().gram(labels) * (1.0 + 1.0 / len(labels))


def _count_pivoted(monkeypatch):
    calls = []
    original = core._pivoted_cholesky

    def counting(matrix):
        calls.append(len(matrix))
        return original(matrix)

    monkeypatch.setattr(core, "_pivoted_cholesky", counting)
    return calls


def _count_assembled(monkeypatch):
    # every Gram goes through core._checked_gram: the trace's own last stage
    # and consistency check, and each stage assemble_gram builds for a fallback
    sizes = []
    original = core._checked_gram

    def counting(kernel, points):
        sizes.append(len(points))
        return original(kernel, points)

    monkeypatch.setattr(core, "_checked_gram", counting)
    monkeypatch.setattr(diagnostics, "_checked_gram", counting)
    return sizes


def _record_potrf(monkeypatch):
    # the trace's two factors go through diagnostics._fortran's LAPACK
    # dpotrf: record each call's order, matrix address and leading dimension
    calls = []
    original = diagnostics._fortran

    def recording(name, *args):
        if name == "dpotrf":
            calls.append(args[1:4])
        return original(name, *args)

    monkeypatch.setattr(diagnostics, "_fortran", recording)
    return calls


def _stages(filtration):
    return [filtration.points.prefix(m) for m in filtration.sizes]


def _fresh_stage_values(kernel, filtration):
    return [
        projection_norm_sq(assemble_gram(kernel, stage), filtration.target)
        for stage in _stages(filtration)
        if filtration.target in stage
    ]


class TestOneFactorFallback:
    """A stage is read from the last stage's factor only while every check
    holds; from the first stage that fails one, stages are solved on their own."""

    def test_inconsistent_kernel_solves_every_stage_on_its_own(self, monkeypatch):
        kernel = SetScaledKernel()
        filtration = Filtration.prefixes([1.0, 2.0, 3.5, 5.0], target=2.0)
        want = _fresh_stage_values(kernel, filtration)
        calls = _count_pivoted(monkeypatch)
        tr = trace(kernel, filtration)
        assert tr.values.tolist() == want
        # each stage, for its value, then its target-deleted minor; the
        # stage's own factor is cached and gives its ratio too
        assert calls == [2, 1, 3, 2, 4, 3]
        fresh = [
            math.exp(log_det(assemble_gram(kernel, [x for x in stage if x != 2.0]))
                     - log_det(assemble_gram(kernel, stage)))
            for stage in _stages(filtration)[1:]
        ]
        assert tr.det_ratios.tolist() == fresh

    def test_fallback_stage_assembled_and_factored_once(self, monkeypatch):
        # the stage a value falls back to is the stage its ratio reads, so
        # one Gram and its one cached pivoted factor serve both
        assembled = _count_assembled(monkeypatch)
        calls = _count_pivoted(monkeypatch)
        tr = trace(SetScaledKernel(), Filtration.prefixes([1.0, 2.0, 3.5, 5.0], target=2.0))
        # the last stage and the consistency check, then each stage and its minor
        assert assembled == [4, 2, 2, 1, 3, 2, 4, 3]
        assert len(calls) == 6
        assert len(tr.det_ratios) == 3

    def test_lapack_failure_mid_filtration(self, monkeypatch):
        # point 2 repeats the section at 1 with exact binary arithmetic, so
        # LAPACK meets a zero pivot at stage 3 and stages 1-2 stay factored
        table = np.array([
            [1.0, 0.5, 0.5, 0.0, 0.0],
            [0.5, 1.25, 1.25, 0.0, 0.0],
            [0.5, 1.25, 1.25, 0.0, 0.0],
            [0.0, 0.0, 0.0, 2.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 3.0],
        ])
        assert dpotrf(table.T, lower=0, clean=1)[1] == 3
        kernel = TableKernel(range(5), table)
        filtration = Filtration.prefixes(range(5), target=0)
        calls = _count_pivoted(monkeypatch)
        tr = trace(kernel, filtration)
        # stage 3's minor, on points 1 and 2, is singular: the ratios stop
        # there, and stages 4 and 5 are factored for their values alone
        assert calls == [3, 2, 4, 5]
        np.testing.assert_allclose(tr.values, [1.0, 1.25, 1.25, 1.25, 1.25], rtol=1e-12)
        assert tr.det_ratios is None
        assert tr.det_ratio_unavailable == "log_det needs a strictly PD Gram matrix, got SemiDefinite(rank=1)"

    def test_late_pivot_below_threshold(self, monkeypatch):
        # the fifth point nearly repeats the second: LAPACK factors it, but
        # its pivot is below PIVOT_RTOL times the largest diagonal entry
        pts = [1.0, 2.0, 3.0, 4.0, 2.0 + 1e-13, 5.0]
        gram = assemble_gram(BrownianKernel(), pts).matrix
        upper, info = dpotrf(gram.T, lower=0, clean=1)
        assert info == 0
        assert upper[4, 4] ** 2 < core.PIVOT_RTOL * 4.0 < upper[3, 3] ** 2
        kernel, filtration = BrownianKernel(), Filtration.prefixes(pts, target=1.0)
        want = _fresh_stage_values(kernel, filtration)
        calls = _count_pivoted(monkeypatch)
        tr = trace(kernel, filtration)
        # stage 5, then its minor, on points 2 and 2 + 1e-13 among others,
        # which is semidefinite at the pivot threshold: the ratios stop there
        assert calls == [5, 4, 6]
        np.testing.assert_allclose(tr.values, want, rtol=1e-12)
        assert tr.values[4:].tolist() == want[4:]
        assert tr.det_ratios is None
        assert tr.det_ratio_unavailable == "log_det needs a strictly PD Gram matrix, got SemiDefinite(rank=3)"

    def test_residual_failure(self, monkeypatch):
        # with a zero residual bound only the exactly solved diagonal stages
        # pass; the coupled fourth stage rounds and falls back
        monkeypatch.setattr(diagnostics, "SOLVE_RTOL", 0.0)
        kernel = TableKernel(
            range(4),
            [[4, 0, 0, 0.1], [0, 1, 0, 0.3], [0, 0, 16, 0.7], [0.1, 0.3, 0.7, 1]],
        )
        filtration = Filtration.prefixes(range(4), target=0)
        want = _fresh_stage_values(kernel, filtration)
        calls = _count_pivoted(monkeypatch)
        tr = trace(kernel, filtration)
        assert calls == [4]
        assert tr.values[:3].tolist() == [0.25, 0.25, 0.25]
        assert tr.values[3] == want[3]

    def test_residual_failure_at_a_middle_stage(self, monkeypatch):
        # the sixth point nearly repeats the third, so its stage solves with
        # a residual over 1e3 times those before it; a bound between the two
        # makes the fourth of six reported stages fail first.  The seventh
        # point's 1e6 diagonal raises the last two stages' bounds above their
        # residuals, yet they too take the pivoted path.
        pts = [1.0, 3.0, 2.0, 5.0, 4.0, 2.0 + 1e-4, 1e6, 0.5]
        kernel, filtration = BrownianKernel(), Filtration.prefixes(pts, target=2.0)
        a = assemble_gram(kernel, pts).matrix
        upper, info = dpotrf(a.T, lower=0, clean=1)
        assert info == 0
        packed_u, packed_k = dtrttp(upper)[0], dtrttp(a.T)[0]
        e_t = np.zeros(len(pts))
        e_t[2] = 1.0
        c = dtpsv(len(pts), packed_u, e_t, trans=1)
        resid = []
        for m in range(3, 9):  # reference: one packed solve and product per stage
            zeta = dtpsv(m, packed_u, c[:m])
            r = dspmv(m, 1.0, packed_k, zeta, beta=-1.0, y=e_t[:m])
            resid.append(np.abs(r).max() / (1.0 + np.abs(a[:m, :m]).max()))
        bound = math.sqrt(max(resid[:3]) * resid[3])
        assert 1e3 * max(resid[:3]) < resid[3] and 1e3 * max(resid[4:]) < bound
        monkeypatch.setattr(diagnostics, "SOLVE_RTOL", bound)
        want = _fresh_stage_values(kernel, filtration)
        calls = _count_pivoted(monkeypatch)
        tr = trace(kernel, filtration)
        assert calls == [6, 7, 8]
        assert tr.values[:3].tolist() == np.cumsum(c * c)[2:5].tolist()
        assert tr.values[3:].tolist() == want[3:]

    @pytest.mark.parametrize("block", [3, 2])
    def test_residual_failure_in_a_later_block(self, block, monkeypatch):
        # the same stages checked in blocks of 3 or 2: the failing fourth
        # stage opens or closes the second block, and stages after it, in
        # its block and beyond, still take the pivoted path
        monkeypatch.setattr(diagnostics, "_CHECK_BLOCK", block)
        self.test_residual_failure_at_a_middle_stage(monkeypatch)

    def test_nan_entry_rejected_as_asymmetric(self):
        class NanKernel(BrownianKernel):
            def gram(self, labels):
                out = super().gram(labels)
                if len(labels) > 2:
                    out[1, 2] = out[2, 1] = np.nan
                return out

        with pytest.raises(ValueError, match="exactly symmetric"):
            trace(NanKernel(), Filtration.prefixes([1.0, 2.0, 3.0, 4.0]))

    def test_served_stages_build_one_stage_point_set(self, monkeypatch):
        # only the first stage is built, for the Kernel.gram contract check
        rng = np.random.default_rng(63)
        pts = [float(v) for v in rng.permutation(np.cumsum(rng.uniform(0.5, 1.5, 200)))]
        kernel, filtration = BrownianKernel(), Filtration.prefixes(pts, target=pts[0])
        built = []
        original = PointSet.prefix

        def counting(points, n):
            built.append(n)
            return original(points, n)

        monkeypatch.setattr(PointSet, "prefix", counting)
        assert trace(kernel, filtration).det_ratios is not None
        assert built == [1]

    def test_pd_filtration_factors_once(self, monkeypatch):
        assembled = _count_assembled(monkeypatch)
        calls = _count_pivoted(monkeypatch)
        rng = np.random.default_rng(61)
        pts = [float(v) for v in rng.permutation(np.cumsum(rng.uniform(0.5, 1.5, 1000)))]
        kernel, filtration = BrownianKernel(), Filtration.prefixes(pts, target=pts[0])
        assert trace(kernel, filtration).det_ratios is not None
        assert calls == []
        assert len(assembled) <= 4


def _ratios_or_error(tr):
    return tr.det_ratio_unavailable if tr.det_ratios is None else tr.det_ratios.tolist()


def _shared_stage_cases():
    rng = np.random.default_rng(62)
    line = [float(v) for v in rng.permutation(np.cumsum(rng.uniform(0.5, 1.5, 80)))]
    unit = [float(v) for v in rng.permutation(np.linspace(0.005, 0.995, 200))]
    semidefinite = TableKernel(range(4), [[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 2]])
    return {
        "brownian-prefix": (BrownianKernel(), Filtration.prefixes(line, target=line[0])),
        "bridge-doubling": (BridgeKernel(), Filtration.doubling(unit, target=unit[0])),
        "binomial": (BinomialKernel(), Filtration.prefixes([3, *range(3), *range(4, 15)], target=3)),
        "semidefinite-mid": (semidefinite, Filtration.prefixes(range(4), target=0)),
        "late-pivot": (BrownianKernel(), Filtration.prefixes([1.0, 2.0, 3.0, 4.0, 2.0 + 1e-13, 5.0])),
        "inconsistent": (SetScaledKernel(), Filtration.prefixes([1.0, 2.0, 3.5, 5.0], target=2.0)),
    }


SHARED_STAGE_CASES = _shared_stage_cases()

# sha256 of each shared-stage case's determinant ratios (their float64
# bytes), or the message of the RKHSKitError the ratio step raised, pinned
# from ``det_ratio_trace`` without a trace, before ``trace`` computed them
# (``det_ratios``, or the message in ``det_ratio_unavailable``).  The ratio
# factors run on one BLAS thread, so every case has one digest whatever
# ``OPENBLAS_NUM_THREADS`` a child process starts with; it is checked under
# one thread and under two.
SHARED_STAGE_RATIOS = {
    "binomial": "ad73cbf5d61c322d4f424dbec63744723c9d572d8811b4dba4a1914bec68bf35",
    "bridge-doubling": "26ea39a62c1dd7b59a9e93050a901aa25576896f39a09608b0f6035d1f5c9087",
    "brownian-prefix": "3f1a744cbd39e06ddd8cef67b535c64bee2e838b8e8472788ca08170cc3ff9ce",
    "inconsistent": "bec73663285d48f1a8050b9fe01a81952f0a40f92f95d46ec4a5954e3e8595f9",
    "late-pivot": "log_det needs a strictly PD Gram matrix, got SemiDefinite(rank=3)",
    "semidefinite-mid": "log_det needs a strictly PD Gram matrix, got SemiDefinite(rank=1)",
}

RATIO_CHILD = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
from rkhskit import trace
from test_diagnostics import SHARED_STAGE_CASES

for name, (kernel, filtration) in sorted(SHARED_STAGE_CASES.items()):
    tr = trace(kernel, filtration)
    if tr.det_ratios is None:
        print(name, tr.det_ratio_unavailable)
    else:
        print(name, hashlib.sha256(tr.det_ratios.tobytes()).hexdigest())
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_shared_stage_ratios_match_golden(threads):
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", RATIO_CHILD, str(Path(__file__).parent)],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        f"{name} {golden}" for name, golden in sorted(SHARED_STAGE_RATIOS.items())
    ]


class TestSharedLastStage:
    """``trace`` reads its determinant ratios from the last stage it
    assembled and factored for its values, and gives the ratios of a trace
    that skips the values' batched check bit for bit: the check leaves that
    stage as it found it, and a stage that then falls back gives the ratio
    of its minor and its own cached factor."""

    @pytest.mark.parametrize("case", sorted(SHARED_STAGE_CASES))
    def test_ratios_with_and_without_trace_identical(self, case, monkeypatch):
        kernel, filtration = SHARED_STAGE_CASES[case]
        with_check = _ratios_or_error(trace(kernel, filtration))
        monkeypatch.setattr(diagnostics, "_checked_values", lambda *args: [])
        assert with_check == _ratios_or_error(trace(kernel, filtration))

    def test_trace_of_another_kernel_is_not_reused(self):
        # a trace leaves nothing on the filtration: the Brownian trace's Gram
        # must not stand in for the bridge kernel's
        f = Filtration.prefixes([0.2, 0.4, 0.6])
        trace(BrownianKernel(), f)
        np.testing.assert_allclose(trace(BridgeKernel(), f).det_ratios, [6.25, 10.0, 10.0], rtol=1e-12)
        # nor the binomial trace's exact values (1/6, 1) for the parity kernel's
        f = Filtration.prefixes([2, 3])
        trace(BinomialKernel(), f)
        assert trace(ParityKernel(), f).det_ratios.tolist() == [1.0, 2.0]

    def _diagnose(self, tmp_path, kind, points, *flags):
        doc = tmp_path / "k.json"
        doc.write_text(json.dumps({"kernel": {"type": kind}, "points": points}))
        out = tmp_path / "trace.csv"
        assert cli.main(["diagnose", "--input", str(doc), "--out", str(out), *flags]) == 0
        rows = list(csv.reader(out.read_text().splitlines()[1:-1]))
        assert all(row[3] for row in rows)

    def test_float_diagnose_assembles_and_factors_last_stage_once(self, tmp_path, monkeypatch):
        assembled, factored = _count_assembled(monkeypatch), _record_potrf(monkeypatch)
        self._diagnose(tmp_path, "bridge", [k / 41 for k in range(1, 41)], "--stages", "doubling")
        assert assembled == [40, 1]     # the last stage, then the consistency check
        # the stage, then its target-deleted Gram
        assert [n for n, _, _ in factored] == [40, 39]

    def test_exact_diagnose_assembles_and_eliminates_last_stage_once(self, tmp_path, monkeypatch):
        grams, eliminations = [], []
        exact_gram, leading_minors = BinomialKernel.exact_gram, exact.leading_minors

        def counting_gram(kernel, labels):
            grams.append(len(labels))
            return exact_gram(kernel, labels)

        def counting_minors(matrix, target=None):
            eliminations.append(len(matrix))
            return leading_minors(matrix, target)

        monkeypatch.setattr(BinomialKernel, "exact_gram", counting_gram)
        monkeypatch.setattr(exact, "leading_minors", counting_minors)
        self._diagnose(tmp_path, "binomial", list(range(12)), "--target", "3")
        assert grams == [12]
        assert eliminations == [12]


class TestClassify:
    def test_stabilized_brownian(self):
        tr = trace(BrownianKernel(), Filtration.prefixes(list(range(1, 11))))
        verdict = classify(tr)
        assert isinstance(verdict, Stabilized)
        assert verdict.stage == 2
        assert verdict.limit == pytest.approx(2.0, rel=1e-9)
        assert tr.verdict is verdict

    def test_stabilized_interior_target_neighbor_gap_limit(self):
        pts = [0.5, 1.25, 2.0, 3.5, 5.0, 6.0, 7.25, 9.0, 10.0, 11.5]
        target_idx = 3
        tr = trace(BrownianKernel(), Filtration.prefixes(pts, target=pts[target_idx]))
        verdict = classify(tr)
        assert isinstance(verdict, Stabilized)
        left, mid, right = pts[target_idx - 1], pts[target_idx], pts[target_idx + 1]
        want = (right - left) / ((mid - left) * (right - mid))
        assert verdict.limit == pytest.approx(want, rel=1e-9)
        # flat from the stage that brings in the right neighbor
        assert verdict.stage == target_idx + 2

    def test_diverging_binomial(self):
        for target in range(4):
            tr = trace(BinomialKernel(), Filtration.prefixes(list(range(31)), target=target))
            assert isinstance(classify(tr), Diverging)

    def test_diverging_accumulation_by_slope(self):
        pts = [1.0] + [1 - 1 / n for n in range(2, 60)]
        tr = trace(BrownianKernel(), Filtration.prefixes(pts, target=1.0))
        verdict = classify(tr)
        assert isinstance(verdict, Diverging)
        assert verdict.growth_exponent > 0.5

    def test_too_few_stages(self):
        tr = trace(BrownianKernel(), Filtration.prefixes(list(range(1, 6))))
        with pytest.raises(TooFewStages):
            classify(tr)  # default k = 5 needs six reported stages

    def test_converging_geometric(self):
        values = 2.0 - 0.5 ** np.arange(1, 13)
        tr = FiltrationTrace(
            target=0,
            stage_indices=tuple(range(1, 13)),
            stage_sizes=tuple(range(1, 13)),
            values=values,
        )
        verdict = classify(tr)
        assert isinstance(verdict, Converging)
        assert verdict.estimate == pytest.approx(2.0, rel=1e-6)

    def test_inconclusive_flat_drift(self):
        values = 3.0 + 5e-4 * np.arange(10)
        tr = FiltrationTrace(
            target=0,
            stage_indices=tuple(range(1, 11)),
            stage_sizes=tuple(range(1, 11)),
            values=values,
        )
        assert isinstance(classify(tr), Inconclusive)

    def test_policy_recorded(self):
        tr = trace(BrownianKernel(), Filtration.prefixes(list(range(1, 11))))
        verdict = classify(tr, tau_stab=1e-8, tau_div=1e-2, k=6)
        assert verdict.policy.tau_stab == 1e-8
        assert verdict.policy.tau_div == 1e-2
        assert verdict.policy.k == 6

    @pytest.mark.parametrize(
        "policy, name",
        [
            ({"k": 0}, "k"),
            ({"k": -3}, "k"),
            ({"k": 2.0}, "k"),
            ({"k": True}, "k"),
            ({"tau_stab": math.inf}, "tau_stab"),
            ({"tau_stab": math.nan}, "tau_stab"),
            ({"tau_stab": 0.0}, "tau_stab"),
            ({"tau_div": -1e-3}, "tau_div"),
            ({"tau_div": math.inf}, "tau_div"),
        ],
    )
    def test_rejects_invalid_policy(self, policy, name):
        tr = trace(BrownianKernel(), Filtration.prefixes(list(range(1, 11))))
        with pytest.raises(ValueError, match=f"^{name} must be"):
            classify(tr, **policy)
        assert tr.verdict is None


class TestDetRatioTrace:
    """The determinant ratios a trace carries in ``det_ratios``."""

    def test_brownian_examples(self):
        ratios = trace(BrownianKernel(), Filtration.prefixes([1, 2])).det_ratios
        np.testing.assert_allclose(ratios, [1.0, 2.0], rtol=1e-9)

    def test_single_point_stage(self):
        ratios = trace(BrownianKernel(), Filtration.prefixes([4.0])).det_ratios
        np.testing.assert_allclose(ratios, [0.25], rtol=1e-12)

    def test_two_point_minor(self):
        ratios = trace(BrownianKernel(), Filtration.prefixes([2, 5], target=2)).det_ratios
        np.testing.assert_allclose(ratios[-1], 5 / 6, rtol=1e-9)

    def test_matches_trace_on_random_pd_tables(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            a = rng.normal(size=(n, n))
            k = a.T @ a + 0.05 * np.eye(n)
            k = np.triu(k) + np.triu(k, 1).T
            kernel = TableKernel(tuple(range(n)), k)
            filtration = Filtration.prefixes(tuple(range(n)), target=0)
            tr = trace(kernel, filtration)
            np.testing.assert_allclose(tr.det_ratios, tr.values, rtol=1e-8)

    def test_exact_for_binomial(self):
        tr = trace(BinomialKernel(), Filtration.prefixes(list(range(5)), target=1))
        np.testing.assert_allclose(tr.det_ratios, [1.0, 5.0, 14.0, 30.0])
        # the floats of the exact values, in an array of their own
        assert tr.det_ratios.tolist() == tr.values.tolist()
        assert tr.det_ratios is not tr.values

    def test_singular_minor_has_no_ratios(self):
        # points 1 and 2 share a section: every stage has a norm, but stage
        # 3's target-deleted minor is singular, so no stage gets a ratio
        kernel = TableKernel((0, 1, 2), [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        tr = trace(kernel, Filtration.prefixes((0, 1, 2)))
        assert tr.values.tolist() == [1.0, 1.0, 1.0]
        assert tr.det_ratios is None
        assert tr.det_ratio_unavailable == "log_det needs a strictly PD Gram matrix, got SemiDefinite(rank=1)"


class ParityKernel(Kernel):
    """Exact rank-2 kernel 1 + (x mod 2)(y mod 2) on the integers: positive
    semidefinite, and singular on any three points."""

    name = "parity"

    def __call__(self, x, y) -> float:
        return float(1 + (x % 2) * (y % 2))

    def exact_gram(self, labels):
        return [[1 + (x % 2) * (y % 2) for y in labels] for x in labels]


class FeatureKernel(Kernel):
    """Exact kernel F F^T from integer feature vectors, one per label 0, 1,
    ...: positive semidefinite, and singular on any set whose features are
    linearly dependent.  ParityKernel is the case of features (1, x mod 2)."""

    name = "feature"

    def __init__(self, features):
        self.features = features

    def __call__(self, x, y) -> float:
        return float(sum(a * b for a, b in zip(self.features[x], self.features[y])))

    def exact_gram(self, labels):
        return [[sum(a * b for a, b in zip(self.features[x], self.features[y])) for y in labels]
                for x in labels]


class TestExactRoute:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.data())
    def test_rank_deficient_ratios_match_fraction_determinants(self, data):
        n = data.draw(st.integers(1, 7))
        rank = data.draw(st.integers(1, 6))
        features = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank),
                                      min_size=n, max_size=n))
        kernel = FeatureKernel(features)
        labels = data.draw(st.permutations(range(n)))
        target = labels[data.draw(st.integers(0, n - 1))]
        sizes = sorted(set(data.draw(st.lists(st.integers(1, n), max_size=n))) | {n})
        filtration = Filtration(labels, sizes, target)
        try:
            tr = trace(kernel, filtration)
        except SingularGram:
            return  # a zero leading minor: no stage has a ratio
        # a singular stage that got this far would divide by a zero fraction_det
        for ratio, m in zip(tr.det_ratios, tr.stage_sizes):
            gram = kernel.exact_gram(labels[:m])
            t = labels[:m].index(target)
            minor = [[row[j] for j in range(m) if j != t] for i, row in enumerate(gram) if i != t]
            assert ratio == float(fraction_det(minor) / fraction_det(gram))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.data())
    def test_matches_fraction_oracles(self, data):
        labels = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=10, unique=True))
        n = len(labels)
        target = labels[data.draw(st.integers(0, n - 1))]
        sizes = sorted(set(data.draw(st.lists(st.integers(1, n), max_size=n))) | {n})
        filtration = Filtration(labels, sizes, target)
        kernel = BinomialKernel()
        tr = trace(kernel, filtration)
        reported = [m for m in sizes if target in labels[:m]]
        assert tr.stage_sizes == tuple(reported)
        for value, ratio, m in zip(tr.exact_values, tr.det_ratios, reported):
            stage = labels[:m]
            gram = kernel.exact_gram(stage)
            t = stage.index(target)
            assert value == fraction_inverse_diagonal(gram, t)
            minor = [[row[j] for j in range(m) if j != t] for i, row in enumerate(gram) if i != t]
            assert ratio == float(fraction_det(minor) / fraction_det(gram))

    @pytest.mark.parametrize("points", [(0, 1.5, 3), (0, -1, 3)], ids=["fraction", "negative"])
    def test_points_outside_domain_raise(self, points):
        # 1.5 is never truncated to 1, and -1 never reaches math.comb
        with pytest.raises(DomainMismatch, match="nonnegative integers"):
            trace(BinomialKernel(), Filtration.prefixes(points))

    @pytest.mark.parametrize("points, target", [((1, 2, 3, 4), 1), ((1, 3, 0), 0)])
    def test_singular_psd_gram_raises(self, points, target):
        # 1 and 3 have the same features, so the Gram block of the first
        # three points is singular; with (1, 3, 0) the zero leading minor
        # comes before the target enters
        filtration = Filtration.prefixes(points, target=target)
        with pytest.raises(SingularGram):
            trace(ParityKernel(), filtration)

    def test_singular_psd_gram_is_input_error_in_cli(self, tmp_path, monkeypatch, capsys):
        doc = tmp_path / "parity.json"
        doc.write_text(json.dumps({"kernel": {"type": "binomial"}, "points": [1, 2, 3, 4]}))
        monkeypatch.setattr(cli, "load_kernel_doc", lambda _: (ParityKernel(), PointSet.of((1, 2, 3, 4))))
        assert cli.main(["diagnose", "--input", str(doc), "--target", "1"]) == cli.EXIT_INPUT
        assert "error:" in capsys.readouterr().err


class IntegerMinKernel(Kernel):
    """min(x, y) on the positive integers, exact only through exact_gram."""

    name = "integer-min"

    def __call__(self, x, y) -> float:
        return float(min(x, y))

    def exact_gram(self, labels):
        return [[min(x, y) for y in labels] for x in labels]


class TestExactGramDeclaresThePath:
    """A kernel takes the exact path exactly when its exact_gram returns a
    Gram; no other attribute is read."""

    def test_kernel_with_only_exact_gram_traces_exactly(self):
        kernel, labels = IntegerMinKernel(), [3, 1, 4, 6, 2, 9]
        tr = trace(kernel, Filtration.prefixes(labels, target=4))
        want = tuple(fraction_inverse_diagonal(kernel.exact_gram(labels[:m]), 2) for m in range(3, 7))
        assert tr.exact_values == want
        assert tr.values.tolist() == tr.det_ratios.tolist() == [float(v) for v in want]

    def test_stray_is_exact_attribute_is_ignored(self):
        class StrayFlag(BrownianKernel):
            is_exact = True   # declares nothing: exact_gram still returns None

        filtration = Filtration.prefixes([1.0, 2.0, 4.0, 7.0])
        tr = trace(StrayFlag(), filtration)
        want = trace(BrownianKernel(), filtration)
        assert tr.exact_values is None
        assert tr.values.tolist() == want.values.tolist()
        assert tr.det_ratios.tolist() == want.det_ratios.tolist()


def _unit_points(rng, n):
    gaps = rng.uniform(0.5, 1.5, n + 1)
    return [float(v) for v in (np.cumsum(gaps)[:-1] / gaps.sum())[rng.permutation(n)]]


class TestTraceMemory:
    """A float trace factors the last stage's Gram and then its
    target-deleted minor in place in the Gram itself: at its peak, with the
    packed copy of the factor, 1.5 n^2 doubles and a little more."""

    N = 1000

    def _peak(self, kernel, filtration):
        trace(kernel, filtration)   # scipy's imports and the BLAS controls load once
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            tr = trace(kernel, filtration)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert tr.det_ratios is not None
        return tr, peak

    def test_bridge_doubling(self):
        pts = _unit_points(np.random.default_rng(34), self.N)
        tr, peak = self._peak(BridgeKernel(), Filtration.doubling(pts, target=pts[0]))
        assert len(tr.values) == 11
        assert peak <= 1.5 * 8 * self.N ** 2 + 2 ** 20

    def test_brownian_prefix_target_first(self):
        # every stage is checked, in blocks whose temporaries are n-by-block
        rng = np.random.default_rng(35)
        pts = [float(v) for v in rng.permutation(np.cumsum(rng.uniform(0.5, 1.5, self.N)))]
        tr, peak = self._peak(BrownianKernel(), Filtration.prefixes(pts, target=pts[0]))
        assert len(tr.values) == self.N
        assert peak <= 1.5 * 8 * self.N ** 2 + 2 ** 20

    def test_table_doubling(self):
        # TableKernel.gram's fancy index is the fresh array the trace factors
        f = np.random.default_rng(38).standard_normal((self.N, self.N))
        kernel = TableKernel(range(self.N), f @ f.T + self.N * np.eye(self.N))
        tr, peak = self._peak(kernel, Filtration.doubling(range(self.N), target=3))
        assert len(tr.values) == 9
        assert peak <= 1.5 * 8 * self.N ** 2 + 2 ** 20

    def test_factors_in_one_buffer(self, monkeypatch):
        # both dpotrf calls factor in place in the Gram the kernel returned,
        # the minor as its leading 49-block with the Gram's leading dimension
        grams, original = [], core._checked_gram

        def recording(kernel, points):
            gram = original(kernel, points)
            grams.append(gram.ctypes.data)   # its address: a reference would make the trace copy it
            return gram

        monkeypatch.setattr(diagnostics, "_checked_gram", recording)
        factored = _record_potrf(monkeypatch)
        pts = _unit_points(np.random.default_rng(36), 50)
        trace(BridgeKernel(), Filtration.doubling(pts, target=pts[7]))
        (n_full, full, lda_full), (n_minor, minor, lda_minor) = factored
        assert (n_full, lda_full, n_minor, lda_minor) == (50, 50, 49, 50)
        assert full.value == minor.value == grams[0]


class CachedBridgeKernel(BridgeKernel):
    """A bridge kernel that keeps every Gram it returns, read-only or not."""

    def __init__(self, read_only=False):
        self.cache, self.read_only = {}, read_only

    def gram(self, labels):
        key = tuple(labels)
        if key not in self.cache:
            self.cache[key] = super().gram(labels)
            self.cache[key].setflags(write=not self.read_only)
        return self.cache[key]


class TestGramOwnership:
    """A trace factors the Gram in place only when the kernel handed over a
    fresh array that nothing else holds; any other Gram is copied first."""

    @pytest.mark.parametrize("read_only", [False, True])
    def test_kept_gram_is_left_as_it_was(self, read_only):
        # 300 points: the minor is written in three tiles, split at the target
        pts = _unit_points(np.random.default_rng(37), 300)
        filtration = Filtration.prefixes(pts, target=pts[5])
        kernel = CachedBridgeKernel(read_only)
        tr = trace(kernel, filtration)
        fresh = trace(BridgeKernel(), filtration)
        assert sorted(map(len, kernel.cache)) == [6, 300]   # the first stage, then the last
        for labels, gram in kernel.cache.items():
            assert gram.tobytes() == BridgeKernel().gram(list(labels)).tobytes()
        assert tr.values.tobytes() == fresh.values.tobytes()
        assert tr.det_ratios.tobytes() == fresh.det_ratios.tobytes()

    def test_writable_copies_all_but_a_fresh_array(self):
        made = []

        def fresh(read_only=False, view=False):
            out = np.ones((6, 3))[:3] if view else np.ones((3, 3))
            out.setflags(write=not read_only)
            made.append(id(out))
            return out

        # results go through plain statements: an assert keeps its operands alive
        kept = id(diagnostics._writable(fresh()))
        assert kept == made[-1]
        for flags in ({"read_only": True}, {"view": True}):
            copied = id(diagnostics._writable(fresh(**flags)))
            assert copied != made[-1]
        held = fresh()
        assert diagnostics._writable(held) is not held


class TestBeyondFloatRange:
    """A value or ratio past the float range raises one error naming the
    target and the stage, with no numpy warning first."""

    @pytest.mark.parametrize("points, target", [([5e-324, 1.0], 5e-324), ([1e-310, 2e-310, 1.0], 1e-310)])
    def test_one_factor_path(self, points, target):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError) as err:
                trace(BrownianKernel(), Filtration.prefixes(points, target=target))
        assert str(err.value) == (f"the projection norm of delta at {target!r} is beyond the float range "
                                  "at stage size 1")

    def test_late_stage_on_both_paths(self, monkeypatch):
        # stage 1 holds 2^1000; the second point's gap of 2^-1026 clears
        # the pivot threshold and sends stage 2 past the float range
        points = [2.0 ** -1000, 2.0 ** -1000 + 2.0 ** -1026]
        assert trace(BrownianKernel(), Filtration.prefixes(points[:1])).values.tolist() == [2.0 ** 1000]
        calls = _count_pivoted(monkeypatch)
        message = r"delta at 9\.332636185032189e-302 is beyond the float range at stage size 2$"
        # SetScaledKernel's stages never match the last stage's block, so
        # each is solved on its own: stage 1, then stage 2, which overflows
        for kernel, pivoted in ((BrownianKernel(), []), (SetScaledKernel(), [1, 2])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(OverflowError, match=message):
                    trace(kernel, Filtration.prefixes(points))
            assert calls == pivoted
