"""Derandomized fuzz of network documents through the command line.

Every generated document ends in exit 0-3 without a traceback on
``network green|resistance|delta-norm`` and ``gff sample``.  For an invalid
document the ``error:`` line equals the one produced by ``reference_error``,
an independent per-edge validation loop over labels.  ``Network`` also checks
each edge once as it reads it, in input order, so the two must agree on which
edge fails first and why; then each vertex's total conductance must be finite
although its edges are.  Trees the package builds skip the checks and are
not generated here.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import given, settings, strategies as st

import rkhskit.cli as cli
from rkhskit import Disconnected, PointSet, RKHSKitError

BAD_CONDUCTANCES = ("x", "1e400", 10**400, float("nan"), float("inf"), float("-inf"), 0, -1.5, None, [1.0])


def reference_error(doc):
    """The ``error:`` line for a network document, or None when it is valid:
    ``Network.from_json`` with the edge checks run one edge at a time."""

    def freeze(label):
        return tuple(freeze(x) for x in label) if isinstance(label, list) else label

    try:
        try:
            vertices = [freeze(v) for v in doc["vertices"]]
            base = freeze(doc["base"])
            edges = [(freeze(u), freeze(v), c) for u, v, c in doc["edges"]]
        except KeyError as err:
            raise ValueError(f"network document is missing field {err}") from None
        pts = PointSet.of(vertices)
        if base not in pts:
            raise ValueError(f"base vertex {base!r} is not a vertex")
        seen = set()
        adjacency = {v: [] for v in pts}
        total = dict.fromkeys(pts, 0.0)
        for u, v, c in edges:
            if u == v:
                raise ValueError(f"self-loop at {u!r} is not allowed")
            if u not in pts or v not in pts:
                raise ValueError(f"edge ({u!r}, {v!r}) references an unknown vertex")
            c = float(c)
            if not c > 0:
                raise ValueError(f"conductance on edge ({u!r}, {v!r}) must be positive, got {c}")
            if c == math.inf:
                raise ValueError(f"conductance on edge ({u!r}, {v!r}) must be finite, got {c}")
            key = frozenset((u, v))
            if key in seen:
                raise ValueError(f"duplicate edge ({u!r}, {v!r})")
            seen.add(key)
            adjacency[u].append(v)
            adjacency[v].append(u)
            total[u] += c
            total[v] += c
        beyond = [v for v in pts if total[v] == math.inf]
        if beyond:
            raise ValueError(f"total conductance at {beyond[0]!r} is beyond the float range")
        reached, stack = {base}, [base]
        while stack:
            for y in adjacency[stack.pop()]:
                if y not in reached:
                    reached.add(y)
                    stack.append(y)
        missing = [v for v in pts if v not in reached]
        if missing:
            raise Disconnected(f"vertices unreachable from base {base!r}: {missing!r}")
    except (RKHSKitError, ValueError, TypeError, OverflowError, KeyError) as err:
        return f"error: {err}"
    return None


def _labels(kind, n):
    if kind == "int":
        return list(range(n))
    if kind == "str":
        return [f"v{i}" for i in range(n)]
    if kind == "list":  # tree-word spellings; JSON turns tuples into lists
        return [[int(b) for b in format(i, "b")] if i else [] for i in range(n)]
    return [i if i % 2 else f"v{i}" for i in range(n)]


@st.composite
def network_docs(draw):
    n = draw(st.integers(2, 7))
    vertices = _labels(draw(st.sampled_from(["int", "str", "list", "mixed"])), n)
    edges = []
    for v in range(1, n):  # a spanning tree, then chords
        edges.append([draw(st.integers(0, v - 1)), v, draw(st.floats(0.25, 4.0))])
    for _ in range(draw(st.integers(0, 3))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v and not any({a, b} == {u, v} for a, b, _ in edges):
            edges.append([u, v, draw(st.floats(0.25, 4.0))])
    edges = [[vertices[u], vertices[v], c] for u, v, c in edges]
    base = vertices[draw(st.integers(0, n - 1))]
    mutations = draw(st.lists(st.sampled_from(
        ["conductance", "unknown", "self-loop", "duplicate", "reversed-duplicate", "fields",
         "dict-endpoint", "dict-vertex", "isolated", "split", "float-alias", "heavy"]), max_size=3))
    for kind in mutations:
        k = draw(st.integers(0, len(edges) - 1))
        if kind == "conductance":
            edges[k][2] = draw(st.sampled_from(BAD_CONDUCTANCES))
        elif kind == "unknown":
            edges[k][draw(st.integers(0, 1))] = "nowhere"
        elif kind == "self-loop":
            edges[k][1] = edges[k][0]
        elif kind in ("duplicate", "reversed-duplicate"):
            u, v, c = edges[k]
            edges.insert(draw(st.integers(k + 1, len(edges))),
                         [u, v, c] if kind == "duplicate" else [v, u, 1.0])
        elif kind == "dict-endpoint":
            edges[k][draw(st.integers(0, 1))] = {"a": 1}
        elif kind == "dict-vertex":
            vertices = vertices + [{"a": 1}]
        elif kind == "isolated":
            vertices = vertices + ["isolated"]
        elif kind == "split":
            del edges[k]
            if not edges:
                edges.append([vertices[0], vertices[1], 1.0])
        elif kind == "float-alias" and isinstance(edges[k][0], int):
            edges[k][0] = float(edges[k][0])  # 1.0 names the vertex 1
        elif kind == "heavy":  # finite edges; their total passes the float range at a vertex of degree 2 or more
            w = vertices[draw(st.integers(0, n - 1))]
            for edge in edges:
                if w in edge[:2]:
                    edge[2] = 1e308
    if "fields" in mutations:  # last, so that the other mutations see three fields
        k = draw(st.integers(0, len(edges) - 1))
        edges[k] = edges[k][:2] if draw(st.booleans()) else edges[k] + [0]
    return {"vertices": vertices, "base": base, "edges": edges}


COMMANDS = (
    ["network", "green"],
    ["network", "resistance"],
    ["network", "delta-norm"],
    ["gff", "sample", "--n", "3", "--seed", "5"],
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(network_docs())
def test_network_documents_exit_cleanly_with_the_reference_error(doc):
    expected = reference_error(doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "net.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for argv in COMMANDS:
            argv = [*argv, "--network", path]
            if argv[1] == "delta-norm":
                argv += ["--x", json.dumps(doc["vertices"][0])]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert "Traceback" not in err.getvalue()
            if expected is None:
                assert code == 0, (argv, err.getvalue())
            else:
                assert code == 1, argv
                assert err.getvalue().splitlines()[0] == expected, argv
