"""Derandomized fuzz of kernel documents through the command line.

Every generated document ends in exit 0-3 without a traceback or a
warning on ``kernel eval``, ``kernel gram`` and ``diagnose``.  A command
that fails says why on its first line of standard error (exactly one line,
``error:``, for exit 1; ``numerical breakdown:`` for exit 2).  A ``kernel
gram`` that succeeds prints the document's points as they were given, with
finite entries, and one that fails writes no file.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

import rkhskit.cli as cli
from rkhskit.serialize import read_matrix_csv

# in one built-in domain or another, in none, or not a number at all;
# json writes the non-finite floats as Infinity and NaN, which it reads back
ODD_POINTS = (
    0, -1, 0.0, -0.5, 1.5, 2.7, 1.0, 1e-300, 5e-324, 1e300, 10**30,
    math.inf, -math.inf, math.nan, True, None, "x", "1", [0, 1], [], {"a": 1},
)
# points on or just past the edge of each kernel's domain
EDGE_POINTS = {
    "brownian": (0, -1.0, 5e-324, 1e300, math.inf, math.nan),
    "bridge": (0, 1, 1.0, 0.5, 1.5, math.inf),
    "binomial": (-1, 1.5, 2.7, 3.0, 10**30, 1e300, math.inf),
    "table": (-1, 0.5, "0", 1.0),
    "network": ("o", "z", 0, ["a"]),
}
NETWORK = {
    "vertices": ["o", "a", "b", "c"],
    "base": "o",
    "edges": [["o", "a", 1.0], ["a", "b", 2.0], ["b", "c", 0.5], ["o", "c", 1.5]],
}


def _valid_points(draw, kind):
    n = draw(st.integers(1, 6))
    if kind == "brownian":
        return sorted(draw(st.sets(st.floats(0.01, 10.0), min_size=n, max_size=n)))
    if kind == "bridge":
        return sorted(draw(st.sets(st.floats(0.01, 0.99), min_size=n, max_size=n)))
    if kind == "binomial":
        return draw(st.lists(st.integers(0, 12), min_size=n, max_size=n, unique=True))
    if kind == "network":
        return draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3, unique=True))
    return list(range(n))  # table labels


def _table(draw, n):
    """Spec of a table kernel on labels 0..n-1, a symmetric positive-definite
    Gram matrix unless a mutation breaks it."""
    a = np.array(draw(st.lists(st.floats(-2, 2), min_size=n * n, max_size=n * n))).reshape(n, n)
    spec = {"type": "table", "labels": list(range(n)), "entries": (a @ a.T + np.eye(n)).tolist()}
    broken = draw(st.sampled_from(["none", "asymmetric", "shape", "nan", "inf", "text", "labels", "missing"]))
    if broken == "asymmetric" and n > 1:
        spec["entries"][0][1] += 1.0
    elif broken == "shape":
        spec["entries"] = spec["entries"][:-1]
    elif broken in ("nan", "inf"):
        spec["entries"][0][0] = math.nan if broken == "nan" else math.inf
    elif broken == "text":
        spec["entries"][0][0] = "x"
    elif broken == "labels":
        spec["labels"] = spec["labels"][:-1] + [spec["labels"][0]]
    elif broken == "missing":
        del spec["entries"]
    return spec


@st.composite
def kernel_docs(draw):
    kind = draw(st.sampled_from(["brownian", "bridge", "binomial", "table", "network"]))
    points = _valid_points(draw, kind)
    if kind == "table":
        spec = _table(draw, len(points))
    elif kind == "network":
        spec = {"type": "network", "network": NETWORK}
    else:
        spec = {"type": kind}
    doc = {"kernel": spec, "points": points}
    if draw(st.booleans()):
        points.insert(draw(st.integers(0, len(points))), draw(st.sampled_from(EDGE_POINTS[kind])))
    mutations = draw(st.lists(st.sampled_from(
        ["odd-point", "duplicate", "empty", "no-points", "points-scalar",
         "unknown-type", "no-type", "kernel-scalar", "doc-list"]), max_size=2))
    for mutation in mutations:
        if mutation == "odd-point":
            points.insert(draw(st.integers(0, len(points))), draw(st.sampled_from(ODD_POINTS)))
        elif mutation == "duplicate" and points:
            points.append(points[0])
        elif mutation == "empty":
            points.clear()
        elif mutation == "no-points":
            doc.pop("points", None)
        elif mutation == "points-scalar":
            doc["points"] = draw(st.sampled_from([3, "abc", {"a": 1}]))
        elif mutation == "unknown-type":
            spec["type"] = "gaussian"
        elif mutation == "no-type":
            spec.pop("type", None)
        elif mutation == "kernel-scalar":
            doc["kernel"] = kind
    return [doc] if "doc-list" in mutations else doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert [str(w.message) for w in caught] == [], argv
    return code, out.getvalue(), err.getvalue()


def _commands(doc, path, tmp):
    points = doc.get("points") if isinstance(doc, dict) else None
    x = y = "1"
    if isinstance(points, list) and points:
        x, y = json.dumps(points[0]), json.dumps(points[-1])
    return [
        (["kernel", "eval", "--input", path, f"--x={x}", f"--y={y}"], None),
        (["kernel", "gram", "--input", path, "--out", os.path.join(tmp, "gram.csv")], "gram.csv"),
        (["diagnose", "--input", path, "--k", "2"], None),
        (["diagnose", "--input", path, "--k", "2", "--stages", "doubling"], None),
    ]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(kernel_docs())
def test_kernel_documents_exit_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "kernel.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for argv, written in _commands(doc, path, tmp):
            code, out, err = _run(argv)
            assert code in (0, 1, 2, 3), (argv, code)
            assert "Traceback" not in err, argv
            if code == 1:
                assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
            elif code == 2:
                assert err.splitlines()[0].startswith("numerical breakdown: "), (argv, err)
            if code != 0 and written:
                assert not os.path.exists(os.path.join(tmp, written)), argv
            if code == 0 and written:
                with open(os.path.join(tmp, written)) as fh:
                    labels, matrix = read_matrix_csv(fh)
                if "points" in doc:  # written as given, never truncated
                    assert labels == doc["points"], (argv, labels)
                assert np.isfinite(matrix).all(), (argv, matrix)
