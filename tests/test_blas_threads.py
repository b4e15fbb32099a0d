"""The pivoted factor must not depend on the number of BLAS threads.

Seeded draws are promised bit for bit for a bit-identical Gram, and the
pivot order decides which draws those are, so the Gram, the pivot order and
the factor are hashed in child processes that start OpenBLAS with one and
with two threads.  Other BLAS libraries ignore the variable and pass.

A float filtration trace of a 300-point bridge prefix runs in the same
children: under either thread count every stage must be served by the one
factor, whose residuals are checked by one triangular solve and one product.
Its values and determinant ratios are compared within the golden tolerances,
not bit for bit: the last bits of OpenBLAS's ``dpotrf`` on a Gram this size
follow the thread count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import rkhskit

CHILD = """
import hashlib, json
from rkhskit import (BridgeKernel, Filtration, LevelWeights, assemble_gram, build_tree,
                     green_kernel, trace)
from rkhskit import core
from rkhskit.core import _unpermuted_factor

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
"""


def _digests(threads: int) -> list:
    src = str(Path(rkhskit.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.splitlines()


def test_factor_bits_do_not_depend_on_blas_threads():
    one, two = _digests(1), _digests(2)
    assert [line.split()[0] for line in one[:2]] == ["StrictlyPD", "StrictlyPD"]
    assert one[2] == "served 151 151"  # the target is the 150th point: stages 150 to 300
    assert two[:3] == one[:3]
    (values, ratios), (values2, ratios2) = json.loads(one[3]), json.loads(two[3])
    np.testing.assert_allclose(values2, values, rtol=1e-10, atol=0)
    np.testing.assert_allclose(ratios2, ratios, rtol=1e-9, atol=0)
