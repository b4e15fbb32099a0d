"""The pivoted factor must not depend on the number of BLAS threads.

Seeded draws are promised bit for bit for a bit-identical Gram, and the
pivot order decides which draws those are, so the Gram, the pivot order and
the factor are hashed in child processes that start OpenBLAS with one and
with two threads.  Other BLAS libraries ignore the variable and pass.
"""

import os
import subprocess
import sys
from pathlib import Path

import rkhskit

CHILD = """
import hashlib
from rkhskit import BridgeKernel, LevelWeights, assemble_gram, build_tree, green_kernel
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
    one = _digests(1)
    assert [line.split()[0] for line in one] == ["StrictlyPD", "StrictlyPD"]
    assert _digests(2) == one
