"""JSON and CSV interchange for kernels, point sets, networks, and matrices.

Kernel documents look like ``{"kernel": {"type": ...}, "points": [...]}``
where type is one of brownian, bridge, binomial, table (with labels and
entries), or network (with an embedded network document).  Matrices travel as
CSV with a header row of point labels, tuple labels spelled as JSON arrays;
floats print with 17 significant digits so artifacts diff cleanly and
round-trip exactly.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from typing import TextIO

import numpy as np

from .builtin import BinomialKernel, BridgeKernel, BrownianKernel
from .core import Kernel, PointSet, TableKernel, _canon_label, check_domain
from .network import Network, green_kernel


def fmt(value) -> str:
    """Canonical text form: exact integers stay integers, floats get 17
    significant digits (enough to round-trip a double)."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return format(float(value), ".17g")
    return format(float(value), ".17g")


_BUILTIN = {k.name: k for k in (BrownianKernel, BridgeKernel, BinomialKernel)}  # by kernel_doc's names


def load_kernel_doc(doc: dict) -> tuple[Kernel, PointSet]:
    """Build a kernel and point set from a parsed kernel document."""
    try:
        spec = doc["kernel"]
        kind = spec["type"]
    except (KeyError, TypeError):
        raise ValueError("kernel document needs a 'kernel' object with a 'type'") from None
    if isinstance(kind, str) and kind in _BUILTIN:
        kernel: Kernel = _BUILTIN[kind]()
    elif kind == "table":
        try:
            kernel = TableKernel(spec["labels"], spec["entries"])
        except KeyError as err:
            raise ValueError(f"table kernel document is missing {err}") from None
    elif kind == "network":
        try:
            net = Network.from_json(spec["network"])
        except KeyError:
            raise ValueError("network kernel document needs a 'network' object") from None
        kernel = green_kernel(net)
        if "points" not in doc or doc["points"] is None:
            return kernel, kernel.points
    else:
        raise ValueError(f"unknown kernel type {kind!r}")
    points = doc.get("points")
    if not isinstance(points, (list, tuple)):  # a string would spell one point per character
        raise ValueError("kernel document needs a 'points' list")
    if type(kernel).exact_gram is not Kernel.exact_gram:
        # exact points are integers: the whole document is checked, then integral floats become ints
        check_domain(kernel, points)
        points = [int(p) for p in points]
    return kernel, PointSet.of(points)


def kernel_doc(kernel: Kernel, points: PointSet) -> dict:
    """Document that reloads to an equivalent kernel and point set."""
    if isinstance(kernel, TableKernel):
        spec = {
            "type": "table",
            "labels": list(kernel.points.labels),
            "entries": kernel.entries.tolist(),
        }
    elif hasattr(kernel, "network"):
        spec = {"type": "network", "network": kernel.network.to_json()}
    else:
        spec = {"type": kernel.name}
    return {"kernel": spec, "points": list(points.labels)}


def write_matrix_csv(fp: TextIO, labels, matrix) -> None:
    writer = csv.writer(fp)
    writer.writerow([_label_text(x) for x in labels])
    if isinstance(matrix, np.ndarray) and matrix.dtype.kind == "f" and matrix.ndim == 2:
        # imported on first use: a command that writes no float CSV neither
        # compiles the encoder nor builds its tables
        from ._floatcsv import write_float_rows

        write_float_rows(fp, matrix)
        return
    rows = matrix if not isinstance(matrix, np.ndarray) else matrix.tolist()
    for row in rows:
        writer.writerow([fmt(v) for v in row])


def read_matrix_csv(fp: TextIO) -> tuple[list, np.ndarray]:
    reader = csv.reader(fp)
    rows = [row for row in reader if row]
    if not rows:
        raise ValueError("empty matrix file")
    labels = [_parse_label(x) for x in rows[0]]
    matrix = np.array([[float(v) for v in row] for row in rows[1:]])
    return labels, matrix


def _label_text(label) -> str:
    # tuple labels (tree words) are spelled as JSON arrays
    if isinstance(label, str):
        return label
    if isinstance(label, tuple):
        return json.dumps(label)
    return fmt(label)


def _parse_label(text: str):
    if text.startswith("["):
        try:
            return _canon_label(json.loads(text))
        except ValueError:
            return text
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def dump_json(doc, fp: TextIO) -> None:
    json.dump(doc, fp, indent=2, sort_keys=True)
    fp.write("\n")
