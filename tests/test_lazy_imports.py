"""Commands that never call scipy never import it.

Every scipy import in rkhskit sits inside the function that calls it, so a
fresh ``import rkhskit, rkhskit.cli`` and the exact, table and tree commands
pay only numpy's import.  Each command runs through ``cli.main`` in one fresh
interpreter, in order, and the scipy modules loaded after it are recorded; a
Brownian diagnose runs last and must load ``scipy.linalg``, so the check can
fail.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# argv: the src directory, then a JSON list of [name, cli argv or null]
SCRIPT = r"""
import contextlib, io, json, sys

sys.path.insert(0, sys.argv[1])
import rkhskit, rkhskit.cli as cli

loaded = {}
for name, argv in json.loads(sys.argv[2]):
    if argv is not None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"{name} exited {code}")
    loaded[name] = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps(loaded))
"""

DOCS = {
    "binomial": ({"type": "binomial"}, list(range(12))),
    "table": ({"type": "table", "labels": ["a", "b"], "entries": [[2.0, 1.0], [1.0, 2.0]]}, ["a", "b"]),
    "brownian": ({"type": "brownian"}, list(range(1, 21))),
}

LAZY = {
    "import": None,
    "kernel eval binomial": ["kernel", "eval", "--input", "{binomial}", "--x", "2", "--y", "3"],
    "kernel gram binomial": ["kernel", "gram", "--input", "{binomial}"],
    "kernel eval table": ["kernel", "eval", "--input", "{table}", "--x", '"a"', "--y", '"b"'],
    "kernel gram table": ["kernel", "gram", "--input", "{table}"],
    "diagnose binomial": ["diagnose", "--input", "{binomial}", "--target", "3"],
    "tree histogram": ["tree", "histogram", "--depth", "6"],
    "reproduce binomial": ["reproduce", "binomial"],
}
CONTROL = ("diagnose brownian", ["diagnose", "--input", "{brownian}"])


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    work = tmp_path_factory.mktemp("lazy")
    paths = {}
    for name, (spec, points) in DOCS.items():
        paths[name] = work / f"{name}.json"
        paths[name].write_text(json.dumps({"kernel": spec, "points": points}))
    commands = [
        (name, argv and [a.format(**paths) for a in argv]) for name, argv in [*LAZY.items(), CONTROL]
    ]
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SRC), json.dumps(commands)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("command", LAZY)
def test_command_loads_no_scipy(loaded, command):
    assert loaded[command] == []


def test_float_diagnose_loads_scipy_linalg(loaded):
    # the positive control: the same probe sees an import when one happens
    assert "scipy.linalg" in loaded[CONTROL[0]]
