"""Float outputs must not depend on the number of BLAS threads.

Seeded draws are promised bit for bit for a bit-identical Gram, and the
pivot order decides which draws those are, so the Gram, the pivot order and
the factor are hashed in child processes that start OpenBLAS with one and
with two threads.  Other BLAS libraries ignore the variable and pass.

A float filtration trace of a 300-point bridge prefix, 3000 seeded draws on
a depth-7 tree's Green Gram and the bridge Gram's dual basis run in the same
children.  The trace must have every stage served by the one factor, and its
values and determinant ratios, like the draws and the dual rows, must be the
same bits under either thread count: their BLAS and LAPACK calls run on one
thread while they hold ``core._one_blas_thread``.  The pin
itself is tested in process: it sets every OpenBLAS it found to one thread
and restores the caller's counts, also across nested and concurrent calls.
"""

import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from test_golden import FLOAT_DIAGNOSE_CASES

import rkhskit
from rkhskit import (BridgeKernel, Filtration, LevelWeights, assemble_gram, build_tree, cli, core,
                     green_kernel, trace)
from rkhskit.gff import sample

CHILD = """
import hashlib, json
from rkhskit import (BridgeKernel, Filtration, LevelWeights, assemble_gram, build_tree,
                     green_kernel, trace)
from rkhskit import core
from rkhskit.core import _unpermuted_factor
from rkhskit.gff import sample

tree = green_kernel(build_tree(7, LevelWeights.parse("constant:1")))
grams = (
    assemble_gram(tree, tree.points),
    assemble_gram(BridgeKernel(), [k / 301 for k in range(1, 301)]),
)
for gram in grams:
    fact = gram.factorization()
    digest = hashlib.sha256(gram.matrix.tobytes())
    digest.update(fact.perm.tobytes())
    digest.update(_unpermuted_factor(fact).tobytes())
    print(type(fact.status).__name__, digest.hexdigest())

pivoted = []
original = core._pivoted_cholesky
core._pivoted_cholesky = lambda matrix: pivoted.append(len(matrix)) or original(matrix)
filtration = Filtration.prefixes([k / 301 for k in range(1, 301)], target=150 / 301)
tr = trace(BridgeKernel(), filtration)
print("served", len(tr.values) - len(pivoted), len(tr.values))
print(json.dumps([tr.values.tolist(), tr.det_ratios.tolist()]))
core._pivoted_cholesky = original

tree = green_kernel(build_tree(7, LevelWeights.parse("geometric:0.5")))
draws = sample(assemble_gram(tree, tree.points), 3000, 11).samples
print("sample", hashlib.sha256(draws.tobytes()).hexdigest())

dual = core.dual_basis(grams[1])[:50]
print("dual", hashlib.sha256(b"".join(row.values.tobytes() for row in dual)).hexdigest())
"""

# sha256 of ``sample(g, 3000, 11).samples`` on the depth-7 ``geometric:0.5``
# tree's Green Gram (254 points), as drawn under one OpenBLAS thread.
TREE_SAMPLE_SHA256 = "4d82eabb6151749a81b2a4326c50a742eb86c535e7c6cad2aaa5218069c3815c"


def _digests(threads: int) -> list:
    src = str(Path(rkhskit.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.splitlines()


@pytest.fixture(scope="module")
def children():
    return {threads: _digests(threads) for threads in (1, 2)}


def test_factor_bits_do_not_depend_on_blas_threads(children):
    one, two = children[1], children[2]
    assert [line.split()[0] for line in one[:2]] == ["StrictlyPD", "StrictlyPD"]
    assert one[2] == "served 151 151"  # the target is the 150th point: stages 150 to 300
    assert two[:4] == one[:4]


def test_sample_bits_do_not_depend_on_blas_threads(children):
    assert children[1][4] == children[2][4] == f"sample {TREE_SAMPLE_SHA256}"


def test_dual_basis_bits_do_not_depend_on_blas_threads(children):
    # dpotri's inverse of the 300-point bridge factor, first 50 rows
    assert children[1][5].startswith("dual ")
    assert children[2][5] == children[1][5]


# -- the pin -------------------------------------------------------------------


@pytest.fixture
def controls():
    """Each OpenBLAS's ``(get, set)`` pair, set to two threads for the test and
    restored to the counts it had before."""
    with core._one_blas_thread:
        pass  # finds the controls on first use
    found = core._one_blas_thread._controls
    if not found:
        pytest.skip("no OpenBLAS thread control in this process")
    before = [get() for get, _ in found]
    for _, put in found:
        put(2)
    try:
        yield found
    finally:
        for (_, put), count in zip(found, before):
            put(count)


def _counts(found) -> list:
    return [get() for get, _ in found]


def _bridge_512_csv(tmp_path: Path, tag: str) -> str:
    doc, flags, _ = FLOAT_DIAGNOSE_CASES["bridge-doubling-512"]
    path = tmp_path / f"{tag}.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / f"{tag}.csv"
    assert cli.main(["diagnose", "--input", str(path), *flags, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_pin_sets_one_thread_and_restores_the_callers_count(controls):
    with core._one_blas_thread:
        assert _counts(controls) == [1] * len(controls)
        with core._one_blas_thread:
            assert _counts(controls) == [1] * len(controls)
        assert _counts(controls) == [1] * len(controls)  # the inner exit restored nothing
    assert _counts(controls) == [2] * len(controls)


def test_trace_and_sample_restore_the_callers_count(controls):
    f = Filtration.doubling([k / 301 for k in range(1, 301)])
    trace(BridgeKernel(), f)
    assert _counts(controls) == [2] * len(controls)
    tree = green_kernel(build_tree(5, LevelWeights.parse("geometric:0.5")))
    sample(assemble_gram(tree, tree.points), 50, 3)
    assert _counts(controls) == [2] * len(controls)


def test_a_concurrent_exit_does_not_restore_early(controls):
    entered, release = threading.Event(), threading.Event()

    def other():
        with core._one_blas_thread:
            entered.set()
            release.wait(10)

    worker = threading.Thread(target=other)
    with core._one_blas_thread:
        worker.start()
        assert entered.wait(10)
        release.set()
        worker.join(10)
        assert not worker.is_alive()
        assert _counts(controls) == [1] * len(controls)  # the worker left first
    assert _counts(controls) == [2] * len(controls)


def test_concurrent_traces_give_the_one_thread_golden(controls, tmp_path):
    golden = FLOAT_DIAGNOSE_CASES["bridge-doubling-512"][2]
    start = threading.Barrier(2, timeout=10)
    digests = {}
    interval = sys.getswitchinterval()

    def run(tag):
        start.wait()
        digests[tag] = [_bridge_512_csv(tmp_path, f"{tag}-{k}") for k in range(3)]

    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=run, args=(tag,)) for tag in ("a", "b")]
        for w in workers:
            w.start()
        for w in workers:
            w.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert digests == {"a": [golden] * 3, "b": [golden] * 3}
    assert _counts(controls) == [2] * len(controls)


def test_trace_runs_without_thread_controls(monkeypatch):
    f = Filtration.doubling([k / 301 for k in range(1, 301)])
    with_controls = trace(BridgeKernel(), f)
    monkeypatch.setattr(core._one_blas_thread, "_controls", [])
    without = trace(BridgeKernel(), f)
    # without the pin the process's own thread count decides the last bits
    np.testing.assert_allclose(without.values, with_controls.values, rtol=1e-10, atol=0)
    np.testing.assert_allclose(without.det_ratios, with_controls.det_ratios, rtol=1e-9, atol=0)


def test_no_proc_maps_finds_no_controls(monkeypatch):
    def unreadable(*args, **kwargs):
        raise FileNotFoundError("/proc/self/maps")

    monkeypatch.setattr(core, "open", unreadable, raising=False)
    assert core._OneBlasThread._find_controls() == []
