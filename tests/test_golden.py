"""Golden outputs for the paths that refactors rewrite.

Traces and determinant ratios of seeded float filtrations were produced by
factoring every stage afresh with the pivoted Cholesky, before traces grew
one bordered factor along the filtration.  The paper-scale cases (1000
points, ``golden_paper_scale.json``) were produced by that bordered factor,
before one Cholesky factor of the last stage served every stage.  The
current path must reproduce both within the stated tolerances; it is not
bit-exact, because it eliminates points in filtration order instead of pivot
order and reads every stage from one factor.

The exact binomial ``diagnose`` CSVs were written by one Bareiss solve and
two Bareiss determinants per stage, before one fraction-free elimination per
filtration replaced them; they must match byte for byte.

The network Green and resistance matrices were produced by the dense
Cholesky of the grounded Laplacian, before one sparse LU factor replaced it;
they must match within ``NETWORK_RTOL`` of the largest entry.  The sampler
hashes pin seeded draws bit for bit.

Tree documents, ``tree resistance`` output, the grid's Green and resistance
CSV bytes, and every vertex's neighbours, conductances and point-mass
expansion were produced by the per-edge ``Network`` constructor (a frozenset
per edge, an adjacency dict), before networks were validated and stored as
index arrays; they must match bit for bit.

The CSV bytes were written by the csv module with one formatted cell at a
time, before float matrices got one row template; they must match byte for
byte.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from _graphs import random_connected_network
import rkhskit.cli as cli
from rkhskit import (
    BridgeKernel,
    BrownianKernel,
    Filtration,
    GramMatrix,
    LevelWeights,
    Network,
    PointSet,
    TableKernel,
    assemble_gram,
    build_tree,
    delta_expand,
    trace,
)
from rkhskit.gff import covariance_triangle_check, sample
from rkhskit.serialize import read_matrix_csv, write_matrix_csv

VALUE_RTOL = 1e-10
RATIO_RTOL = 1e-9
NETWORK_RTOL = 1e-12


def brownian_prefix():
    """100 increasing coordinates entered in a seeded random order."""
    rng = np.random.default_rng(1501)
    x = np.cumsum(rng.uniform(0.5, 1.5, 100))
    labels = [float(v) for v in x[rng.permutation(100)]]
    return BrownianKernel(), Filtration.prefixes(labels, target=labels[0])


def bridge_doubling():
    """512 points of (0, 1) in a seeded random order, stage sizes 1, 2, ..., 512."""
    rng = np.random.default_rng(2310)
    gaps = rng.uniform(0.5, 1.5, 513)
    x = np.cumsum(gaps)[:-1] / gaps.sum()
    labels = [float(v) for v in x[rng.permutation(512)]]
    return BridgeKernel(), Filtration.doubling(labels, target=labels[0])


def brownian_prefix_1000():
    """1000 increasing coordinates entered in a seeded random order."""
    rng = np.random.default_rng(1000)
    x = np.cumsum(rng.uniform(0.5, 1.5, 1000))
    labels = [float(v) for v in x[rng.permutation(1000)]]
    return BrownianKernel(), Filtration.prefixes(labels, target=labels[0])


def bridge_prefix_1000():
    """1000 points of (0, 1) in a seeded random order, one new point per stage."""
    rng = np.random.default_rng(1001)
    gaps = rng.uniform(0.5, 1.5, 1001)
    x = np.cumsum(gaps)[:-1] / gaps.sum()
    labels = [float(v) for v in x[rng.permutation(1000)]]
    return BridgeKernel(), Filtration.prefixes(labels, target=labels[0])


def table_late_target():
    """Random positive-definite table on 0..7; the target 2 enters at stage 3."""
    rng = np.random.default_rng(3)
    a = rng.uniform(-1.0, 1.0, (8, 8))
    k = a.T @ a + 1e-2 * np.eye(8)
    k = np.triu(k) + np.triu(k, 1).T
    return TableKernel(tuple(range(8)), k), Filtration.prefixes(tuple(range(8)), target=2)


BROWNIAN_VALUES = [
    0.19532245616135133, 0.21402745747264756, 0.21402745747264756, 0.22165803279689825,
    0.25279025375915565, 0.25279025375915565, 0.25279025375915565, 0.25279025375915565,
    0.2527902537591557, 0.2527902537591557, 0.25279025375915576, 0.25279025375915576,
    0.25279025375915576, 0.26247098435610966, 0.26247098435610966, 0.2624709843561096,
    0.26247098435610955, 0.26247098435610955, 0.26247098435610955, 0.26247098435610955,
    0.26247098435610955, 0.26247098435610955, 0.26247098435610955, 0.26247098435610955,
    0.26247098435610955, 0.2624709843561096, 0.2624709843561096, 0.2624709843561096,
    0.2624709843561096, 0.3170809293626165, 0.3170809293626165, 0.3170809293626165,
    0.3170809293626165, 0.3170809293626165, 0.3170809293626165, 0.34603968548682251,
    0.44352110698843855, 0.44352110698843855, 0.50604906446274833, 0.50604906446274811,
    0.50604906446274811, 0.50604906446274822, 0.50604906446274833, 0.61774950239967341,
    1.6647906158882968, 1.6647906158882968, 1.6647906158882968, 1.6647906158882968,
    1.6647906158882972, 1.6647906158882972, 1.6647906158882972, 1.6647906158882972,
    1.6647906158882972, 1.6647906158882972, 1.6647906158882972, 1.6647906158882972,
    1.6647906158882972, 1.6647906158882972, 1.6647906158882972, 1.6647906158882972,
    1.6647906158882972, 1.6647906158882972, 1.6647906158882972, 1.6647906158882972,
    1.6647906158882972, 1.6647906158882972, 1.6647906158882972, 1.6647906158882972,
    1.6647906158882972, 1.6647906158882972, 1.6647906158882972, 1.6647906158882972,
    1.6647906158882972, 1.6647906158882972, 1.6647906158882972, 1.6647906158882972,
    1.6647906158882972, 1.6647906158882972, 1.6647906158882972, 1.8045310673651567,
    1.8045310673651567, 2.8285431218389752, 2.8285431218389752, 2.8285431218389752,
    2.8285431218389752, 2.8285431218389752, 2.8285431218389752, 2.8285431218389854,
    2.8285431218389854, 2.8285431218389854, 2.8285431218389854, 2.8285431218389854,
    2.8285431218389854, 2.8285431218389854, 2.8285431218389854, 2.8285431218389854,
    2.8285431218389854, 2.8285431218389854, 2.8285431218389854, 2.8285431218389854,
]

BROWNIAN_DET_RATIOS = [
    0.19532245616135127, 0.21402745747264754, 0.21402745747264734, 0.22165803279689814,
    0.25279025375915576, 0.25279025375915576, 0.2527902537591562, 0.2527902537591562,
    0.25279025375915531, 0.25279025375915531, 0.25279025375915531, 0.25279025375915531,
    0.25279025375915531, 0.26247098435610966, 0.26247098435610966, 0.2624709843561106,
    0.26247098435610872, 0.26247098435610966, 0.2624709843561106, 0.2624709843561106,
    0.2624709843561106, 0.2624709843561106, 0.26247098435610966, 0.26247098435610872,
    0.26247098435610872, 0.26247098435610872, 0.26247098435610872, 0.26247098435610966,
    0.26247098435610966, 0.31708092936261539, 0.31708092936261539, 0.3170809293626165,
    0.31708092936261878, 0.31708092936261878, 0.31708092936261767, 0.34603968548682407,
    0.44352110698843916, 0.44352110698843916, 0.50604906446274878, 0.50604906446274878,
    0.50604906446274878, 0.506049064462747, 0.50604906446274878, 0.61774950239967452,
    1.6647906158882946, 1.6647906158882946, 1.6647906158883006, 1.6647906158883006,
    1.6647906158882946, 1.6647906158882946, 1.6647906158882946, 1.6647906158882946,
    1.6647906158883006, 1.6647906158883006, 1.6647906158882946, 1.6647906158883006,
    1.6647906158882886, 1.6647906158882946, 1.6647906158882946, 1.6647906158882946,
    1.6647906158882946, 1.6647906158883006, 1.6647906158882946, 1.6647906158883123,
    1.6647906158882946, 1.6647906158882946, 1.6647906158882946, 1.6647906158882946,
    1.6647906158882946, 1.6647906158883006, 1.6647906158883006, 1.6647906158883063,
    1.6647906158883035, 1.6647906158882946, 1.6647906158883006, 1.6647906158882946,
    1.6647906158882946, 1.6647906158882946, 1.6647906158883006, 1.8045310673651591,
    1.8045310673651591, 2.8285431218389814, 2.8285431218389765, 2.8285431218389663,
    2.8285431218389663, 2.8285431218389663, 2.8285431218389663, 2.8285431218389938,
    2.8285431218389889, 2.8285431218389765, 2.8285431218389814, 2.8285431218389911,
    2.8285431218389787, 2.8285431218389836, 2.8285431218389938, 2.8285431218389814,
    2.8285431218389849, 2.8285431218389872, 2.8285431218389832, 2.8285431218389907,
]

BRIDGE_VALUES = [
    77.930858191854242, 78.345817272397923, 88.657171160655722, 115.80368853222008,
    131.37621404804793, 131.3762140480479, 213.4548213790363, 498.19613244333539,
    498.19613244333601, 810.78128883230579,
]

BRIDGE_DET_RATIOS = [
    77.930858191854227, 78.345817272397952, 88.657171160655707, 115.80368853221981,
    131.37621404804955, 131.37621404805327, 213.45482137903403, 498.19613244334761,
    498.19613244329099, 810.78128883223167,
]

TABLE_VALUES = [
    1.2099155622415696, 1.216086467659639, 1.539027982747712, 1.5688320030271306,
    1.6339623618374153, 7.449317067059126,
]

TABLE_DET_RATIOS = [
    1.2099155622415696, 1.2160864676596388, 1.5390279827477118, 1.5688320030271303,
    1.6339623618374153, 7.4493170670591295,
]


PAPER_SCALE = json.loads(Path(__file__).with_name("golden_paper_scale.json").read_text())

CASES = {
    "brownian-prefix-100": (brownian_prefix, BROWNIAN_VALUES, BROWNIAN_DET_RATIOS),
    "bridge-doubling-512": (bridge_doubling, BRIDGE_VALUES, BRIDGE_DET_RATIOS),
    "table-target-at-stage-3": (table_late_target, TABLE_VALUES, TABLE_DET_RATIOS),
    **{
        name: (build, PAPER_SCALE[name]["values"], PAPER_SCALE[name]["det_ratios"])
        for name, build in (
            ("brownian-prefix-1000", brownian_prefix_1000),
            ("bridge-prefix-1000", bridge_prefix_1000),
        )
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_matches_golden(name):
    build, values, _ = CASES[name]
    tr = trace(*build())
    assert len(tr.values) == len(values)
    np.testing.assert_allclose(tr.values, values, rtol=VALUE_RTOL, atol=0)


@pytest.mark.parametrize("name", sorted(CASES))
def test_det_ratios_match_golden(name):
    build, _, ratios = CASES[name]
    got = trace(*build()).det_ratios
    assert len(got) == len(ratios)
    np.testing.assert_allclose(got, ratios, rtol=RATIO_RTOL, atol=0)


def test_table_reports_stages_from_target_entry():
    kernel, filtration = table_late_target()
    tr = trace(kernel, filtration)
    assert tr.stage_indices == (3, 4, 5, 6, 7, 8)


# -- exact binomial diagnose --------------------------------------------------

# ``diagnose`` CSVs for the binomial kernel on {0, ..., 30}, byte for byte as
# the per-stage exact solves wrote them (one Bareiss solve and two
# determinants per stage); the one-elimination path must reproduce every
# byte: exact integers, 17-digit floats of exact rationals, and the verdict.
BINOMIAL_PREFIX_TARGET_2 = (
    "stage_index,stage_size,zeta_value,det_ratio,increment\r\n"
    "1,1,0.16666666666666666,0.16666666666666666,\r\n"
    "2,2,0.20000000000000001,0.20000000000000001,0.033333333333333354\r\n"
    "3,3,1,1,0.80000000000000004\r\n"
    "4,4,10,10,9\r\n"
    "5,5,46,46,36\r\n"
    "6,6,146,146,100\r\n"
    "7,7,371,371,225\r\n"
    "8,8,812,812,441\r\n"
    "9,9,1596,1596,784\r\n"
    "10,10,2892,2892,1296\r\n"
    "11,11,4917,4917,2025\r\n"
    "12,12,7942,7942,3025\r\n"
    "13,13,12298,12298,4356\r\n"
    "14,14,18382,18382,6084\r\n"
    "15,15,26663,26663,8281\r\n"
    "16,16,37688,37688,11025\r\n"
    "17,17,52088,52088,14400\r\n"
    "18,18,70584,70584,18496\r\n"
    "19,19,93993,93993,23409\r\n"
    "20,20,123234,123234,29241\r\n"
    "21,21,159334,159334,36100\r\n"
    "22,22,203434,203434,44100\r\n"
    "23,23,256795,256795,53361\r\n"
    "24,24,320804,320804,64009\r\n"
    "25,25,396980,396980,76176\r\n"
    "26,26,486980,486980,90000\r\n"
    "27,27,592605,592605,105625\r\n"
    "28,28,715806,715806,123201\r\n"
    "29,29,858690,858690,142884\r\n"
    "30,30,1023526,1023526,164836\r\n"
    "31,31,1212751,1212751,189225\r\n"
    '{"growth_exponent": 5.187375768461856, "tolerances": {"k": 5, "tau_div": 0.001, "tau_stab": 1e-10}, "verdict": "Diverging"}\n'
)

BINOMIAL_DOUBLING_TARGET_23 = (
    "stage_index,stage_size,zeta_value,det_ratio,increment\r\n"
    "1,1,1.2145605314292775e-13,1.2145605314292775e-13,\r\n"
    "2,2,1.2145605314294252e-13,1.2145605314294252e-13,1.4767476145737341e-26\r\n"
    "3,4,1.2145605409497952e-13,1.2145605409497952e-13,9.5203699803614432e-22\r\n"
    "4,8,1.2162451583761073e-13,1.2162451583761073e-13,1.6846174263121406e-16\r\n"
    "5,16,3.2060125584142676e-12,3.2060125584142676e-12,3.0843880425766571e-12\r\n"
    "6,31,4380099451877,4380099451877,4380099451877\r\n"
    '{"growth_exponent": 12.512598958656577, "tolerances": {"k": 5, "tau_div": 0.001, "tau_stab": 1e-10}, "verdict": "Diverging"}\n'
)

BINOMIAL_CASES = {
    "prefix-target-2": (["--target", "2"], BINOMIAL_PREFIX_TARGET_2),
    "doubling-target-23": (["--target", "23", "--stages", "doubling"], BINOMIAL_DOUBLING_TARGET_23),
}


@pytest.mark.parametrize("name", sorted(BINOMIAL_CASES))
def test_binomial_diagnose_csv_matches_golden(name, tmp_path):
    flags, golden = BINOMIAL_CASES[name]
    doc = tmp_path / "binomial.json"
    doc.write_text(json.dumps({"kernel": {"type": "binomial"}, "points": list(range(31))}))
    out = tmp_path / "trace.csv"
    assert cli.main(["diagnose", "--input", str(doc), *flags, "--out", str(out)]) == 0
    assert out.read_bytes() == golden.encode()


# sha256 of ``diagnose`` stdout for the binomial kernel on {0, ..., N} at the
# benchmark's sizes, written by one elimination for the trace and a second
# one of the target-deleted Gram for the determinant ratios, before the ratios
# were read from the trace's exact values; they must match byte for byte.
BINOMIAL_STDOUT_SHA256 = {
    (49, "0", "prefix"): "9642b2f0c2544e8ef836cc0ff623123b893a45b9b3492acdaeffca4d17981a9e",
    (49, "3", "prefix"): "bdc41550ad491fa87d89da7f98346d0444d081115627555c08cbb9a89307a377",
    (64, "17", "doubling"): "a6ecd6ccf0e88d1d8d7f218c9a99ed65448378b792eab0195e6c1f8e45467bf2",
}


@pytest.mark.parametrize("case", sorted(BINOMIAL_STDOUT_SHA256), ids=lambda c: "-".join(map(str, c)))
def test_binomial_diagnose_stdout_matches_golden_hash(case, tmp_path, capsys):
    n, target, stages = case
    doc = tmp_path / "binomial.json"
    doc.write_text(json.dumps({"kernel": {"type": "binomial"}, "points": list(range(n + 1))}))
    assert cli.main(["diagnose", "--input", str(doc), "--target", target, "--stages", stages]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == BINOMIAL_STDOUT_SHA256[case]


# -- float diagnose ------------------------------------------------------------

# sha256 of float ``diagnose`` CSVs, written row by row by the csv module while
# each served stage's residual was checked with its own packed triangular
# solve and product; the table writer and the batched residual check must
# reproduce every byte, the verdict line included.  The float trace runs its
# BLAS calls on one thread, so each CSV has one digest whatever
# ``OPENBLAS_NUM_THREADS`` a child process starts with; it is checked under
# one thread and under two.  Other BLAS libraries ignore the variable.


def rank_deficient_table():
    """Integer table on 0..7 whose points 2 and 5 share one feature vector, so
    every stage from the sixth on is semidefinite and has no determinant ratio."""
    rng = np.random.default_rng(6)
    v = rng.integers(-3, 4, (8, 8)).astype(float)
    v[5] = v[2]
    return {"type": "table", "labels": list(range(8)), "entries": (v @ v.T).tolist()}


BROWNIAN_CSV_SHA256 = "72ab1da774d5ff2b4580eadea988023bcee083dc5926e5e12f505c8263607cad"
TABLE_CSV_SHA256 = "f4ae03cf40a44df14419cc9663a9861dda5b825a923ee677c1fa5ac21fa53fe8"
FLOAT_DIAGNOSE_CASES = {
    # name: (document, flags, digest)
    "brownian-prefix-100": (
        {"kernel": {"type": "brownian"}, "points": brownian_prefix()[1].points.labels},
        [],
        BROWNIAN_CSV_SHA256,
    ),
    "bridge-doubling-512": (
        {"kernel": {"type": "bridge"}, "points": bridge_doubling()[1].points.labels},
        ["--stages", "doubling"],
        "702c5e6f140642d70d1549cff7a1aa863281c99bb29476b1ff3e63a52d39c903",
    ),
    "table-rank-deficient": (
        {"kernel": rank_deficient_table(), "points": list(range(8))},
        ["--target", "1"],
        TABLE_CSV_SHA256,
    ),
}

DIAGNOSE_CHILD = """
import hashlib, json, sys
import rkhskit.cli as cli

for name, doc, flags, out in json.loads(sys.argv[1]):
    assert cli.main(["diagnose", "--input", doc, *flags, "--out", out]) == 0
    data = open(out, "rb").read()
    print(name, b"det_ratio_unavailable" in data, hashlib.sha256(data).hexdigest())
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_float_diagnose_csv_matches_golden_hash(threads, tmp_path):
    runs = []
    for name, (doc, flags, _) in sorted(FLOAT_DIAGNOSE_CASES.items()):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        runs.append([name, str(path), flags, str(tmp_path / f"{name}.csv")])
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", DIAGNOSE_CHILD, json.dumps(runs)],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        f"{name} {name == 'table-rank-deficient'} {digest}"
        for name, (_, _, digest) in sorted(FLOAT_DIAGNOSE_CASES.items())
    ]


# ``diagnose --k 1`` stdout on a 4-point table whose points 1 and 2 share one
# section: every stage has a norm, but the target-deleted minor of stage 3 is
# singular, so the det_ratio column is blank and the verdict line says why.
RANK_DEFICIENT_STDOUT = (
    "stage_index,stage_size,zeta_value,det_ratio,increment\r\n"
    "1,1,1,,\r\n"
    "2,2,1,,0\r\n"
    "3,3,1,,0\r\n"
    "4,4,1,,0\r\n"
    '{"det_ratio_unavailable": "log_det needs a strictly PD Gram matrix, got SemiDefinite(rank=1)", '
    '"limit": 1.0, "stage": 1, "tolerances": {"k": 1, "tau_div": 0.001, "tau_stab": 1e-10}, '
    '"verdict": "Stabilized"}\n'
)


def test_rank_deficient_diagnose_stdout_matches_golden(tmp_path, capsys):
    entries = [[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 2]]
    doc = tmp_path / "table.json"
    doc.write_text(json.dumps({"kernel": {"type": "table", "labels": [0, 1, 2, 3], "entries": entries},
                               "points": [0, 1, 2, 3]}))
    assert cli.main(["diagnose", "--input", str(doc), "--k", "1"]) == 0
    assert capsys.readouterr().out == RANK_DEFICIENT_STDOUT


# -- float trace pins -------------------------------------------------------
#
# Values, determinant ratios (or the reason they are missing) and stage
# counts of seeded float traces, pinned bit for bit before the trace moved
# its factors into one work buffer and checked its stages in blocks: the
# factor and the packed solve see the same input, so only residual rounding
# may move, and no stage here lies near its bound.

class _SetScaledKernel(BrownianKernel):
    """Entries depend on the whole set, so no stage is read from the factor."""

    def gram(self, labels):
        return super().gram(labels) * (1.0 + 1.0 / len(labels))


def _unit_points(rng, n):
    gaps = rng.uniform(0.5, 1.5, n + 1)
    return [float(v) for v in (np.cumsum(gaps)[:-1] / gaps.sum())[rng.permutation(n)]]


def _line_points(rng, n):
    return [float(v) for v in rng.permutation(np.cumsum(rng.uniform(0.5, 1.5, n)))]


def _pd_table(rng, n, width):
    f = rng.uniform(-1.0, 1.0, (n, width))
    k = f @ f.T + np.eye(n)
    return TableKernel(range(n), np.triu(k) + np.triu(k, 1).T)


def _float_trace_cases():
    rng = np.random.default_rng(3401)
    line, line6, unit4, unit6 = (_line_points(rng, 300), _line_points(rng, 600),
                                 _unit_points(rng, 400), _unit_points(rng, 600))
    # a point 1e-13 past another at position 150: its pivot falls below the
    # threshold, so later stages are solved on their own and have no ratio
    near = _line_points(rng, 200)
    near.insert(150, near[40] + 1e-13)
    # rows 40 and 90 share one feature vector: stages from the 91st on are
    # semidefinite, the target stays in range, and its minor is singular
    f = rng.integers(-3, 4, (120, 120)).astype(float)
    f[90] = f[40]
    dup = TableKernel(range(120), f @ f.T)
    return {
        "brownian-prefix-300": (BrownianKernel(), Filtration.prefixes(line, target=line[0])),
        "brownian-doubling-600": (BrownianKernel(), Filtration.doubling(line6, target=line6[20])),
        "bridge-prefix-400": (BridgeKernel(), Filtration.prefixes(unit4, target=unit4[133])),
        "bridge-doubling-600": (BridgeKernel(), Filtration.doubling(unit6, target=unit6[0])),
        "table-prefix-200": (_pd_table(rng, 200, 50), Filtration.prefixes(range(200), target=0)),
        "table-doubling-256": (_pd_table(rng, 256, 300), Filtration.doubling(range(256), target=3)),
        "fallback-inconsistent-60": (_SetScaledKernel(), Filtration.prefixes(line[:60], target=line[5])),
        "fallback-near-duplicate-201": (BrownianKernel(), Filtration.prefixes(near, target=near[0])),
        "singular-minor-table-120": (dup, Filtration.prefixes(range(120), target=0)),
    }


def _trace_pin(tr):
    ratios = (tr.det_ratio_unavailable if tr.det_ratios is None
              else hashlib.sha256(tr.det_ratios.tobytes()).hexdigest())
    return [len(tr.values), None if tr.det_ratios is None else len(tr.det_ratios),
            hashlib.sha256(tr.values.tobytes()).hexdigest(), ratios]


FLOAT_TRACE_PINS = {
    # name: [values, ratios (None when missing), sha256 of the values' float64
    # bytes, sha256 of the ratios' bytes or the message of why they are missing]
    "bridge-doubling-600": [11, 11, "25f98173c2ce3b114d5f8a430f8488001c091b0e12ef2e34955b2a011299f778",
                            "aeebd8a712f865f9859c07bf2aea4254c0df7da9af9bd8815fc6c359676463ee"],
    "bridge-prefix-400": [267, 267, "c4e38f2128d0c6ec4fa7f391a08a352e8debfac241fc80bfe59a0df07c96fdc0",
                          "1ebfaaf8db54323bd2875fc2ed37aaf32790eaae5559f125f430bf3267f9c42b"],
    "brownian-doubling-600": [6, 6, "3c954f4a7e6bb92735040e2e694708dded65f29e5d2bca4d4488d42cf337eeb4",
                              "75e78a21d3c836860c536b71cf4d7953ed7b5616787702ad15a1945b7086c032"],
    "brownian-prefix-300": [300, 300, "75eadeaf650ff2cb5388e829ee36cc558ac1864bbfaf3582008e93018b37bec4",
                            "53f0abdb00f4631fa2505a5fa9e81766db41fde2869af2924f58e14908f6cf2e"],
    "fallback-inconsistent-60": [55, 55, "a23ff8d02037bb5c2290bf2a2a1293ae70759a7de3ab756f2e746722127e0a4e",
                                 "6e6e5fd6517bc5c28b0f1628be7159816e5cc108120db9584b3c2a4dd4370062"],
    "fallback-near-duplicate-201": [201, None, "4fc2cb6ab23fa6825edde49512e8da348c2e24cb350c20e6f48cff7681dec6f3",
                                    "log_det needs a strictly PD Gram matrix, got SemiDefinite(rank=149)"],
    "singular-minor-table-120": [120, None, "288ad2509c90f31a8b0120a552044e77aae45a761a84986880d139a861a1c15a",
                                 "log_det needs a strictly PD Gram matrix, got SemiDefinite(rank=89)"],
    "table-doubling-256": [7, 7, "65f9d0ec7038f5d7603006e7309bfb932fa2f672921e19beaf75b3f686962a66",
                           "2ec3b528db302f1dd5dd911abef832c5f1e17c5fd8f88c5a7a2074ab986aacf4"],
    "table-prefix-200": [200, 200, "ad2532cbd92fa8ce0874c7f79c89575d33fabc4a067760a700fac245ee8edc37",
                         "1c7a88f52a6890e6ff5974466d6a9af3ffede63abf95135d18d50a8cbe5c3eb4"],
}
FLOAT_TRACE_CASES = _float_trace_cases()


@pytest.mark.parametrize("name", sorted(FLOAT_TRACE_PINS))
def test_float_trace_matches_pin(name):
    assert _trace_pin(trace(*FLOAT_TRACE_CASES[name])) == FLOAT_TRACE_PINS[name]


# -- networks ---------------------------------------------------------------


def grid_network():
    """4 x 4 grid on 0..15 (row-major, base 0) with seeded irregular conductances."""
    rng = np.random.default_rng(4404)
    edges = []
    for i in range(4):
        for j in range(4):
            v = 4 * i + j
            if j < 3:
                edges.append((v, v + 1, float(rng.uniform(0.25, 4.0))))
            if i < 3:
                edges.append((v, v + 4, float(rng.uniform(0.25, 4.0))))
    return Network(list(range(16)), 0, edges)


GRID_GREEN = [
    [0.9120090332002827, 0.8534333126930358, 0.8492528178971298, 0.7280332117230276, 0.8324775340207544, 0.8375070129342368, 0.83456263778079, 0.8060704951559561, 0.8179840932593123, 0.825566053181781, 0.8300299660328989, 0.8102773481123752, 0.8154603315445024, 0.8185231466227427, 0.8198517595583517],
    [0.8534333126930358, 1.3323164193631114, 1.2807435158451659, 0.8247450122881741, 0.9277769992477367, 1.1030416409801111, 1.0995173024928195, 0.9751028290820267, 0.9962756519261022, 1.0419052530931199, 1.0711719251119567, 0.9848291042897779, 0.9968122003904308, 1.0114995225855543, 1.0183894826231181],
    [0.8492528178971298, 1.2807435158451659, 1.6538844717429317, 0.8316472437155327, 0.9330405547008105, 1.1125222805833188, 1.1492629278815385, 0.993399239157927, 1.0158647163059482, 1.0673928803022525, 1.1094708266519802, 1.0041462495513382, 1.0173869255129162, 1.0347250525152876, 1.0433554306293702],
    [0.7280332117230276, 0.8247450122881741, 0.8316472437155327, 1.0317876137421382, 0.8593441784630109, 0.8510402266308326, 0.8559015551840825, 0.9029436810229925, 0.8832736622198499, 0.8707554210515838, 0.8633852505157541, 0.8959979307939749, 0.8874405343901467, 0.8823836548767643, 0.880190040386935],
    [0.8324775340207544, 0.9277769992477367, 0.9330405547008105, 0.8593441784630109, 0.9859549410155675, 0.9549709084433697, 0.9515365896040755, 0.9379670183669195, 0.9503579320725812, 0.9512424081428632, 0.9512401396675338, 0.9418525441193523, 0.946639641697658, 0.9478124068943143, 0.9482081835151146],
    [0.8375070129342368, 1.1030416409801111, 1.1125222805833188, 0.8510402266308326, 0.9549709084433697, 1.1831374254096505, 1.1458370699057725, 1.0158629239855825, 1.0390262687256735, 1.0923457795661222, 1.1191470683479667, 1.0265670778949452, 1.0397549532359447, 1.056083905313659, 1.0633653730399923],
    [0.83456263778079, 1.0995173024928195, 1.1492629278815385, 0.8559015551840825, 0.9515365896040755, 1.1458370699057725, 1.324068120241997, 1.05769248017825, 1.0847003202474546, 1.1569559231284159, 1.2440524466152165, 1.0720263348234744, 1.0896861227728878, 1.116339128030786, 1.1310853025445753],
    [0.8060704951559561, 0.9751028290820267, 0.993399239157927, 0.9029436810229925, 0.9379670183669195, 1.0158629239855825, 1.05769248017825, 1.382775857704002, 1.2196240564624554, 1.1441669913139378, 1.1018609567046838, 1.3271501104123455, 1.2586173307789497, 1.2248306795181985, 1.2106322152341344],
    [0.8179840932593123, 0.9962756519261022, 1.0158647163059482, 0.8832736622198499, 0.9503579320725812, 1.0390262687256735, 1.0847003202474546, 1.2196240564624554, 1.2779986524965432, 1.1833770406855482, 1.1327368325881304, 1.2313649854328044, 1.2458302022971708, 1.2243850699776635, 1.2138030812124607],
    [0.825566053181781, 1.0419052530931199, 1.0673928803022525, 0.8707554210515838, 0.9512424081428632, 1.0923457795661222, 1.1569559231284159, 1.1441669913139378, 1.1833770406855482, 1.3103487529057676, 1.2238139355462083, 1.1612080935469162, 1.1822033009985924, 1.205413109139648, 1.2075377254317985],
    [0.8300299660328989, 1.0711719251119567, 1.1094708266519802, 0.8633852505157541, 0.9512401396675338, 1.1191470683479667, 1.2440524466152165, 1.1018609567046838, 1.1327368325881304, 1.2238139355462083, 1.3679022624995516, 1.1197484519748975, 1.141786443934258, 1.178422889879164, 1.2003007639050929],
    [0.8102773481123752, 0.9848291042897779, 1.0041462495513382, 0.8959979307939749, 0.9418525441193523, 1.0265670778949452, 1.0720263348234744, 1.3271501104123455, 1.2313649854328044, 1.1612080935469162, 1.1197484519748975, 1.4974074255675989, 1.3418084836961663, 1.2912559334621343, 1.2714531495358887],
    [0.8154603315445024, 0.9968122003904308, 1.0173869255129162, 0.8874405343901467, 0.946639641697658, 1.0397549532359447, 1.0896861227728878, 1.2586173307789497, 1.2458302022971708, 1.1822033009985924, 1.141786443934258, 1.3418084836961663, 1.4443027642750967, 1.3730940662024178, 1.3463865731849143],
    [0.8185231466227427, 1.0114995225855543, 1.0347250525152876, 0.8823836548767643, 0.9478124068943143, 1.056083905313659, 1.116339128030786, 1.2248306795181985, 1.2243850699776635, 1.205413109139648, 1.178422889879164, 1.2912559334621343, 1.3730940662024178, 1.6465496752158204, 1.5924983096443448],
    [0.8198517595583517, 1.0183894826231181, 1.0433554306293702, 0.880190040386935, 0.9482081835151146, 1.0633653730399923, 1.1310853025445753, 1.2106322152341344, 1.2138030812124607, 1.2075377254317985, 1.2003007639050929, 1.2714531495358887, 1.3463865731849143, 1.5924983096443448, 1.8457424173490362],
]
TREE_RESISTANCE = [
    [0.0, 1.000000000000002, 1.000000000000002, 1.500000000000005, 1.5000000000000027, 1.500000000000005, 1.5000000000000027, 1.750000000000005, 1.7500000000000049, 1.7500000000000029, 1.7500000000000024, 1.750000000000005, 1.7500000000000049, 1.7500000000000029, 1.7500000000000024],
    [1.000000000000002, 0.0, 2.000000000000004, 0.5000000000000006, 0.5, 2.500000000000007, 2.5000000000000044, 0.7500000000000008, 0.7500000000000006, 0.7500000000000002, 0.7500000000000001, 2.750000000000007, 2.750000000000007, 2.750000000000005, 2.7500000000000044],
    [1.000000000000002, 2.000000000000004, 0.0, 2.500000000000007, 2.5000000000000044, 0.5000000000000006, 0.5, 2.750000000000007, 2.750000000000007, 2.750000000000005, 2.7500000000000044, 0.7500000000000009, 0.7500000000000006, 0.7500000000000002, 0.7500000000000001],
    [1.500000000000005, 0.5000000000000006, 2.500000000000007, 0.0, 1.0000000000000007, 3.00000000000001, 3.000000000000008, 0.25, 0.24999999999999997, 1.2500000000000009, 1.2500000000000009, 3.25000000000001, 3.2500000000000098, 3.250000000000008, 3.2500000000000075],
    [1.5000000000000027, 0.5, 2.5000000000000044, 1.0000000000000007, 0.0, 3.000000000000008, 3.0000000000000053, 1.2500000000000009, 1.2500000000000004, 0.25000000000000006, 0.25, 3.250000000000008, 3.2500000000000075, 3.2500000000000053, 3.2500000000000053],
    [1.500000000000005, 2.500000000000007, 0.5000000000000006, 3.00000000000001, 3.000000000000008, 0.0, 1.0000000000000007, 3.25000000000001, 3.2500000000000098, 3.250000000000008, 3.2500000000000075, 0.25, 0.24999999999999997, 1.2500000000000009, 1.2500000000000009],
    [1.5000000000000027, 2.5000000000000044, 0.5, 3.000000000000008, 3.0000000000000053, 1.0000000000000007, 0.0, 3.250000000000008, 3.2500000000000075, 3.2500000000000053, 3.2500000000000053, 1.2500000000000009, 1.2500000000000004, 0.25000000000000006, 0.25],
    [1.750000000000005, 0.7500000000000008, 2.750000000000007, 0.25, 1.2500000000000009, 3.25000000000001, 3.250000000000008, 0.0, 0.5, 1.5000000000000009, 1.5000000000000009, 3.50000000000001, 3.5000000000000098, 3.500000000000008, 3.5000000000000075],
    [1.7500000000000049, 0.7500000000000006, 2.750000000000007, 0.24999999999999997, 1.2500000000000004, 3.2500000000000098, 3.2500000000000075, 0.5, 0.0, 1.5000000000000009, 1.5000000000000007, 3.5000000000000098, 3.5000000000000098, 3.500000000000008, 3.500000000000007],
    [1.7500000000000029, 0.7500000000000002, 2.750000000000005, 1.2500000000000009, 0.25000000000000006, 3.250000000000008, 3.2500000000000053, 1.5000000000000009, 1.5000000000000009, 0.0, 0.5, 3.500000000000008, 3.500000000000008, 3.5000000000000058, 3.5000000000000053],
    [1.7500000000000024, 0.7500000000000001, 2.7500000000000044, 1.2500000000000009, 0.25, 3.2500000000000075, 3.2500000000000053, 1.5000000000000009, 1.5000000000000007, 0.5, 0.0, 3.5000000000000075, 3.500000000000007, 3.5000000000000053, 3.500000000000005],
    [1.750000000000005, 2.750000000000007, 0.7500000000000009, 3.25000000000001, 3.250000000000008, 0.25, 1.2500000000000009, 3.50000000000001, 3.5000000000000098, 3.500000000000008, 3.5000000000000075, 0.0, 0.5, 1.5000000000000009, 1.5000000000000009],
    [1.7500000000000049, 2.750000000000007, 0.7500000000000006, 3.2500000000000098, 3.2500000000000075, 0.24999999999999997, 1.2500000000000004, 3.5000000000000098, 3.5000000000000098, 3.500000000000008, 3.500000000000007, 0.5, 0.0, 1.5000000000000009, 1.5000000000000007],
    [1.7500000000000029, 2.750000000000005, 0.7500000000000002, 3.250000000000008, 3.2500000000000053, 1.2500000000000009, 0.25000000000000006, 3.500000000000008, 3.500000000000008, 3.5000000000000058, 3.5000000000000053, 1.5000000000000009, 1.5000000000000009, 0.0, 0.5],
    [1.7500000000000024, 2.7500000000000044, 0.7500000000000001, 3.2500000000000075, 3.2500000000000053, 1.2500000000000009, 0.25, 3.5000000000000075, 3.500000000000007, 3.5000000000000053, 3.500000000000005, 1.5000000000000009, 1.5000000000000007, 0.5, 0.0],
]


def test_grid_green_matrix_matches_golden():
    green = grid_network().green_matrix()
    scale = np.abs(GRID_GREEN).max()
    np.testing.assert_allclose(green, GRID_GREEN, rtol=0, atol=NETWORK_RTOL * scale)


def test_tree_resistance_csv_matches_golden(tmp_path):
    tree = build_tree(3, LevelWeights.geometric(0.5))
    doc = tmp_path / "tree.json"
    doc.write_text(json.dumps(tree.to_json()))
    out = tmp_path / "r.csv"
    assert cli.main(["network", "resistance", "--network", str(doc), "--out", str(out)]) == 0
    with open(out) as fh:
        labels, matrix = read_matrix_csv(fh)
    assert labels == list(tree.vertices.labels)
    scale = np.abs(TREE_RESISTANCE).max()
    np.testing.assert_allclose(matrix, TREE_RESISTANCE, rtol=0, atol=NETWORK_RTOL * scale)


# sha256 of json.dumps(build_tree(depth, weights).to_json()) for depth 1..6
TREE_DOC_SHA256 = {
    "geometric:0.5": (
        "b9c6109944ad255f8d0bb332241c7435b6e79a793113b80918558b5771840e71",
        "46898abcaf4d6eae9e557d3001a5c32b7755093789687d4289a542e9db112967",
        "6575371d553ad3cb262a5941f4faaff882cf68480a40db3bba6437967df67dd2",
        "e0a3c16530d6a1b349323129ec35be2a85f26c63b0b5c2510686e5eb54306a68",
        "defbfb1d08d33612f5a667d9f3b7776bfd0aa5693c3377504a35ffefda11d624",
        "983a283f8061fd4707fc4cc357f427cc875af2dd081cfdb66934d38e3a6d8d48",
    ),
    "constant:2": (
        "6372758dd58650dc2e2cd18e277bff10865eaabe587e59ef98bd985056345b20",
        "31f90941109ac88092b1ca4f2571f9d56afb6c1ad9c9bd162480d84504bb2002",
        "9688899b2f9e77273a71529d98b83f9e8c3c3366dcbc675ba17b0973009c38bb",
        "ef9052495053f0880b2bdf3caadcc38c7e093c654bb652fd1087f2163fc98eb5",
        "5e46ae6551e467b54a7138411c84c6a167282e56bffe537ed6d9ab02f3941578",
        "ba262350df283bab2a74ea701189436f28efd8b74dbf1df1ac06cc1989df1460",
    ),
    "explicit-6": (
        "b9c6109944ad255f8d0bb332241c7435b6e79a793113b80918558b5771840e71",
        "9cc5723c059908d653115e83b5847c329b3f45f3c0cb95dd9e4be6b9c25294a5",
        "99422f7ed684d89c8c58d63a34137a009fc4720f25a5dbc40cfad55948362c51",
        "b53ab8b9299a40639362f600c957f3933e3a3344bc35ff6d12d965a35ad4781f",
        "6a107076b1a390b7088dc4e539b297c61ce1bce6567075f7e332303b3058dca3",
        "44b246a7be069622414efbff84b3b3b6756156718ce8dc760a8f5b0da6f3dad5",
    ),
}
TREE_WEIGHTS = {
    "geometric:0.5": LevelWeights.geometric(0.5),
    "constant:2": LevelWeights.constant(2.0),
    "explicit-6": LevelWeights.explicit([1.0, 0.3, 2.5, 0.125, 7.0, 0.0625]),
}


@pytest.mark.parametrize("name", sorted(TREE_DOC_SHA256))
def test_tree_documents_match_golden_hash(name):
    for depth, digest in enumerate(TREE_DOC_SHA256[name], start=1):
        doc = build_tree(depth, TREE_WEIGHTS[name]).to_json()
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest, depth


# stdout of ``tree resistance --weights geometric:0.5`` at depths 11 and 12
TREE_RESISTANCE_STDOUT = {
    ("01101001110", "01100110001"): (
        '{\n  "meet_level": 4,\n  "network_value": 0.248046875,\n  "series_sum": 0.248046875,\n'
        '  "tail_value": 0.25,\n  "truncation": 11\n}\n'
    ),
    ("00000000000", "11111111111"): (
        '{\n  "meet_level": 0,\n  "network_value": 3.998046875,\n  "series_sum": 3.998046875,\n'
        '  "tail_value": 4.0,\n  "truncation": 11\n}\n'
    ),
    ("010011100101", "010011100110"): (
        '{\n  "meet_level": 10,\n  "network_value": 0.0029296875,\n  "series_sum": 0.0029296875,\n'
        '  "tail_value": 0.00390625,\n  "truncation": 12\n}\n'
    ),
    ("000000000000", "111111111111"): (
        '{\n  "meet_level": 0,\n  "network_value": 3.9990234375,\n  "series_sum": 3.9990234375,\n'
        '  "tail_value": 4.0,\n  "truncation": 12\n}\n'
    ),
}


@pytest.mark.parametrize("words", sorted(TREE_RESISTANCE_STDOUT))
def test_deep_tree_resistance_stdout_matches_golden(words, capsys):
    w1, w2 = words
    assert cli.main(["tree", "resistance", "--weights", "geometric:0.5", "--w1", w1, "--w2", w2]) == 0
    assert capsys.readouterr().out == TREE_RESISTANCE_STDOUT[words]


# sha256 of the CLI's CSV bytes for grid_network()
GRID_CSV_SHA256 = {
    "green": "401f54b6c90101190d05f8508223bbad35a9b317d24231cd0816b2860577d345",
    "resistance": "32d278ffd84b46c399a85c06699b589223d02ca699a2b643e9c0b848a344346c",
}


@pytest.mark.parametrize("cmd", sorted(GRID_CSV_SHA256))
def test_grid_csv_matches_golden_hash(cmd, tmp_path):
    doc = tmp_path / "grid.json"
    doc.write_text(json.dumps(grid_network().to_json()))
    out = tmp_path / f"{cmd}.csv"
    assert cli.main(["network", cmd, "--network", str(doc), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GRID_CSV_SHA256[cmd]


# sha256 of repr() of every vertex's neighbours, conductances to every
# vertex, total conductance and point-mass expansion; repr pins the values,
# their order and their Python types.  grid-4x4 was re-pinned when c(x)
# became the Laplacian's diagonal entry bit for bit (first-endpoint edges,
# then second-endpoint edges): c(x) at vertices 5, 11 and 13 moved in the
# last bit, and nothing else did
STRUCTURE_SHA256 = {
    "tree-4": "b2b597bdb72b01bf62cb377aeaacc50cc123630a4bb65b2789bf93ceea8e7d29",
    "grid-4x4": "fc948407cd74a8505c1364c9464592a987dcb734b154ea572e27a14e4fc19d75",
}


@pytest.mark.parametrize("name", sorted(STRUCTURE_SHA256))
def test_network_structure_matches_golden_hash(name):
    net = build_tree(4, LevelWeights.geometric(0.5)) if name == "tree-4" else grid_network()
    labels = list(net.vertices.labels)
    rows = [
        (
            x,
            net.neighbors(x),
            [net.conductance(x, y) for y in labels],
            net.total_conductance(x),
            delta_expand(net, x) if x != net.base else None,
        )
        for x in labels
    ]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == STRUCTURE_SHA256[name]


# -- networks with a non-zero base ------------------------------------------

# Three seeded chorded networks from tests/_graphs, re-based at a vertex
# other than 0, so base-relative indexing is exercised away from the first
# row.  The digests were taken while the Laplacian was factored with the
# base's row and column deleted, before the factor kept every vertex and
# pinned the base's row to the identity; they must match byte for byte.  The
# gff-sample and gff-check digests were re-taken when the sampler's normals
# became one Philox stream and its products one shape.
REBASED = {"chords-12": (2701, 12, 5), "chords-25": (2702, 25, 24), "chords-40": (2703, 40, 17)}


def rebased_network(name):
    seed, n, base = REBASED[name]
    net = random_connected_network(np.random.default_rng(seed), n, extra_edges=n)
    return Network(net.vertices.labels, base, net.edges)


def rebased_commands(name, doc, kernel_doc):
    """CLI arguments per pinned output of one rebased network."""
    _, n, base = REBASED[name]
    x, y = (base + 3) % n, (base + n // 2) % n
    net = ["--network", str(doc)]
    return {
        "green": ["network", "green", *net],
        "resistance": ["network", "resistance", *net],
        "resistance-base-x": ["network", "resistance", *net, "--x", str(base), "--y", str(x)],
        "resistance-x-y": ["network", "resistance", *net, "--x", str(x), "--y", str(y)],
        "delta-norm": ["network", "delta-norm", *net, "--x", str(x)],
        "gff-sample": ["gff", "sample", *net, "--n", "50", "--seed", "7"],
        "gff-check": ["gff", "check", *net, "--n", "200", "--seed", "11"],
        "kernel-gram": ["kernel", "gram", "--input", str(kernel_doc)],
    }


# sha256 of each command's output bytes, per rebased network
REBASED_CSV_SHA256 = {
    "chords-12": {
        "green": "548233094e9bfcc3d34778f6be5f17824183b80c497599faa36d58b1c0c1cb7c",
        "resistance": "bf71592581feb27945e976302aebebf223667a7b9f0feec1f3ea9cb4342ab56d",
        "resistance-base-x": "3781c842054fd05da710cd8b4a78501421016de6ea4b72f4c0e697431af40b11",
        "resistance-x-y": "0728f026e034152e0c3f216b1e86cea31db805196876aaf8110330b54c78686d",
        "delta-norm": "0e51aae606ff4c154c1afd5c30dbfa63e0e36110f6c49f891cb9b5de44b61ce8",
        "gff-sample": "345ce1f88d8e79a719575c1eb183176ad98d03f7746dbc2c464372da340b04a1",
        "gff-check": "330356cac23d7e1b339facec005cb7d4a31287ff5c2a8d6cdea370af96f85a3a",
        "kernel-gram": "07b1c6e4d40cabdb329ed7d4098e1654aa46d1b48a352a6a1ee40c1c4de88454",
    },
    "chords-25": {
        "green": "052c7c5a4bb6b41680344dc50855c091c43e7f8f5c6865b4a5e76f2240913a77",
        "resistance": "ce2878eef7695497635776a8b1b2099b25bec6223eb0dcdff25dc7509d548057",
        "resistance-base-x": "4fde91280d7176c7ea64e1f2282b1d8ad84fc1ae3ed301d2cd328b06485c5fbe",
        "resistance-x-y": "5176f5d9b14ca3f400cd8873e20c02e5e6ae5e6fede3225ec9bf7da0594ef829",
        "delta-norm": "b04b2f2f4b4f273479790223187aa801fd68e856e0b44b24d1d6413b4221d703",
        "gff-sample": "466b49b13f0274940fdf75086ce8abee4f5dc3bca3351a92cbfa0b2ff0de9106",
        "gff-check": "d2f766fcd941be3b434248d20eea04abf3f98c2dd69302846344d489a84d9ec4",
        "kernel-gram": "30ff5ea0fdec2d822bb89756db752b48de96afe8fb6f8161407bff21d308edfd",
    },
    "chords-40": {
        "green": "890a7b79f67a04ac46d1b6a01b06a73744c0cbaf604ea36025c8f9140ffb0c35",
        "resistance": "abdd8e8ac36a9f8b9eda53fb869691efb4f40b6d1a4ef15583ea9a7c218b58a6",
        "resistance-base-x": "02033f5a85b48141e20dd1927c72dbdd4d2936178bf16122fdd4f05686cacae7",
        "resistance-x-y": "e7d0f5cd684fb49aec7439396b1c6f779e266e38ac4169d70c241de13034aa33",
        "delta-norm": "c4c7bbe51547c77151b4ed3807e3fb7a4cc1b60787639a63f30f619aa5339f37",
        "gff-sample": "47d94533ce96f2c3667413eada218eccf187f627741e95019b12ad597582ec48",
        "gff-check": "5e2064616f65f84bc8e60f90c76760693246fe74b889e85902207836fca9d99b",
        "kernel-gram": "f350c2e6194db4a846676b55588b5da785184fc68a9b8c1402c80fc1219afb9c",
    },
}


def rebased_outputs(name, tmp_path):
    net = rebased_network(name)
    doc = tmp_path / f"{name}.json"
    doc.write_text(json.dumps(net.to_json()))
    # every non-base vertex, in a seeded order
    order = np.random.default_rng(REBASED[name][0]).permutation(len(net))
    points = [int(v) for v in order if v != net.base]
    kernel_doc = tmp_path / f"{name}-kernel.json"
    kernel_doc.write_text(json.dumps({"kernel": {"type": "network", "network": net.to_json()}, "points": points}))
    digests = {}
    for cmd, argv in rebased_commands(name, doc, kernel_doc).items():
        out = tmp_path / f"{name}-{cmd}.out"
        assert cli.main([*argv, "--out", str(out)]) == 0, cmd
        digests[cmd] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(REBASED))
def test_rebased_network_outputs_match_golden_hash(name, tmp_path):
    assert rebased_outputs(name, tmp_path) == REBASED_CSV_SHA256[name]


def triangle_triples():
    """200 seeded (network, x, y, z): every fifth triple puts the base in one
    slot, and every seventh repeats x as y."""
    rng = np.random.default_rng(2704)
    nets = [rebased_network(name) for name in sorted(REBASED)]
    for k in range(200):
        net = nets[k % 3]
        t = [int(v) for v in rng.integers(0, len(net), size=3)]
        if k % 5 == 0:
            t[k % 3] = net.base
        if k % 7 == 0:
            t[1] = t[0]
        yield net, *t


# sha256 of repr() of [(holds, margin), ...] over triangle_triples()
TRIANGLE_SHA256 = "1bad8eb974b4863e06dc4aee301291ed3a2a910ae07c925108988b1b3bf16c95"


def test_covariance_triangle_checks_match_golden_hash():
    checks = [(c.holds, c.margin) for c in (covariance_triangle_check(*t) for t in triangle_triples())]
    assert all(holds for holds, _ in checks)
    assert hashlib.sha256(repr(checks).encode()).hexdigest() == TRIANGLE_SHA256


# ``network green`` and ``network resistance`` bytes, and the triangle check,
# on a network whose only vertex is its base
SINGLE_VERTEX_CSV = {"green": "\r\n", "resistance": "5\r\n0\r\n"}


@pytest.mark.parametrize("cmd", sorted(SINGLE_VERTEX_CSV))
def test_single_vertex_network_matches_golden(cmd, tmp_path):
    doc = tmp_path / "one.json"
    doc.write_text(json.dumps({"vertices": [5], "base": 5, "edges": []}))
    out = tmp_path / f"{cmd}.csv"
    assert cli.main(["network", cmd, "--network", str(doc), "--out", str(out)]) == 0
    assert out.read_bytes() == SINGLE_VERTEX_CSV[cmd].encode()
    check = covariance_triangle_check(Network([5], 5, []), 5, 5, 5)
    assert (check.holds, repr(check.margin)) == (True, "0.0")


# -- sampler ----------------------------------------------------------------

# sha256 of sample(gram, 1000, seed).samples.tobytes(); the float stream is
# bit-exact on one platform, so these pin the draws exactly.
SAMPLE_SHA256 = {
    "identity-3": (42, "ad6c724601e6e8e4ae299624e4bce29900d214dfc3b7980ea172a4124f1dd398"),
    "brownian-5": (7, "89226038d8c4af4456b43e9857f256d75a239105aa29434d7cb1b375d7e3eaab"),
    "rank-2-table": (2015, "85bdd18cf20866463bf4c447142435f2dc9ddedc3d84965aeab49d605ba5746a"),
}


def sampler_gram(name):
    if name == "identity-3":
        return GramMatrix(PointSet((0, 1, 2)), np.eye(3))
    if name == "brownian-5":
        return assemble_gram(BrownianKernel(), [1.0, 2.0, 3.0, 5.0, 8.0])
    # rows 0 and 1 of [[1, 2], [2, 1], [3, 3]] span the third: rank 2, exact
    table = np.array([[5.0, 4.0, 9.0], [4.0, 5.0, 9.0], [9.0, 9.0, 18.0]])
    return assemble_gram(TableKernel((0, 1, 2), table), (0, 1, 2))


@pytest.mark.parametrize("name", sorted(SAMPLE_SHA256))
def test_sample_stream_matches_golden_hash(name):
    seed, digest = SAMPLE_SHA256[name]
    draws = sample(sampler_gram(name), 1000, seed)
    assert hashlib.sha256(draws.samples.tobytes()).hexdigest() == digest


# -- CSV bytes ----------------------------------------------------------------

# Byte for byte as the per-cell csv writer wrote them: 17 significant digits
# ("-0", subnormals, nan, inf), "\r\n" row ends, tuple labels as JSON arrays,
# and exact integers past 2^64 from the binomial ``kernel gram``.
CSV_SPECIAL_FLOATS = (
    "0,0.5,x\r\n"
    "-0,4.9406564584124654e-324,1.0000000000000001e+300\r\n"
    "0.33333333333333331,nan,inf\r\n"
    "-inf,-0.66666666666666663,0.10000000000000001\r\n"
)

CSV_TUPLE_LABELS = '[],[0],"[0, 1]"\r\n2.5,-1e-300,7\r\n0.14285714285714285,0,-3\r\n'

BINOMIAL_GRAM_0_TO_35_BY_5 = (
    "0,5,10,15,20,25,30,35\r\n"
    "1,1,1,1,1,1,1,1\r\n"
    "1,252,3003,15504,53130,142506,324632,658008\r\n"
    "1,3003,184756,3268760,30045015,183579396,847660528,3190187286\r\n"
    "1,15504,3268760,155117520,3247943160,40225345056,344867425584,2250829575120\r\n"
    "1,53130,30045015,3247943160,137846528820,3169870830126,47129212243960,505037289962205\r\n"
    "1,142506,183579396,40225345056,3169870830126,126410606437752,3085851035479212,"
    "51915437974328292\r\n"
    "1,324632,847660528,344867425584,47129212243960,3085851035479212,118264581564861424,"
    "3009106305270645216\r\n"
    "1,658008,3190187286,2250829575120,505037289962205,51915437974328292,3009106305270645216,"
    "112186277816662845432\r\n"
)


def test_float_csv_matches_golden_bytes():
    m = np.array([[-0.0, 5e-324, 1e300], [1 / 3, np.nan, np.inf], [-np.inf, -2 / 3, 0.1]])
    buf = io.StringIO()
    write_matrix_csv(buf, [0, 0.5, "x"], m)
    assert buf.getvalue() == CSV_SPECIAL_FLOATS


def test_tuple_label_csv_matches_golden_bytes():
    buf = io.StringIO()
    write_matrix_csv(buf, [(), (0,), (0, 1)], np.array([[2.5, -1e-300, 7.0], [1 / 7, 0.0, -3.0]]))
    assert buf.getvalue() == CSV_TUPLE_LABELS


def test_binomial_gram_csv_matches_golden_bytes(tmp_path):
    doc = tmp_path / "binomial.json"
    doc.write_text(json.dumps({"kernel": {"type": "binomial"}, "points": list(range(0, 36, 5))}))
    out = tmp_path / "gram.csv"
    assert cli.main(["kernel", "gram", "--input", str(doc), "--out", str(out)]) == 0
    assert out.read_bytes() == BINOMIAL_GRAM_0_TO_35_BY_5.encode()
