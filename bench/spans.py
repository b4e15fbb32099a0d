"""In-memory spans around the public functions of each rkhskit layer.

Wrappers are installed only for a traced cycle and removed afterwards, so
untraced jobs run the program untouched.  The CLI and several modules bind
names with ``from .x import y``; installing a wrapper therefore replaces the
function in every ``rkhskit`` module that holds it, not only where it is
defined.  A target that no longer exists is skipped and listed, so the
benchmark keeps running when a later change removes or renames a function.

Each span records its job, name, start, end, the span that caused it and
whether it raised.  Self time is span time minus the time its child spans
cover; layer self times plus ``cli.self_s`` therefore add up to the traced
job wall time.  The named sub-metrics (``core.factor_s`` and the like) are
inclusive times unless listed in ``SELF_TIMED``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "serialize", "diagnostics", "core", "builtin", "exact", "network", "tree", "gff")

# Spans whose time is reported as ``<span>_s``: the time inside the function,
# including what it calls and counted once where calls of one name nest.
TIMED_SPANS = (
    "serialize.write", "serialize.load",
    "diagnostics.trace", "diagnostics.det_ratio", "diagnostics.classify",
    "core.assemble", "core.factor", "core.solve",
    "builtin.gram",
    "exact.solve", "exact.det",
    "network.build", "network.solve", "network.resistance", "network.green",
    "tree.build", "tree.boundary",
    "gff.sample", "gff.check",
)
# These report self time instead: a delta solve without the factorization it
# triggers, a resistance without its grounded solves.
SELF_TIMED = ("core.solve", "network.resistance")

# Counts reported per traced job, with their units.  "computed" marks a count
# derived from shapes or a formula rather than observed.
COUNTS = {
    "serialize.cells": "computed/job",
    "serialize.bytes": "bytes/job",
    "diagnostics.stages": "count/job",
    "core.assemble_entries": "computed/job",
    "core.factor_misses": "count/job",
    "core.factor_hits": "count/job",
    "core.factor_flops": "computed/job",
    "core.solve_calls": "count/job",
    "builtin.gram_entries": "computed/job",
    "exact.order_sum": "computed/job",
    "network.solve_calls": "count/job",
    "network.solve_cols": "computed/job",
    "network.unknowns": "computed/job",
    "tree.vertices": "count/job",
    "gff.normals": "computed/job",
}
MAXIMA = {"exact.max_bits": "bits"}


def _bits(value) -> int:
    if isinstance(value, int):
        return abs(value).bit_length()
    num, den = getattr(value, "numerator", None), getattr(value, "denominator", None)
    if isinstance(num, int) and isinstance(den, int):
        return max(abs(num).bit_length(), den.bit_length())
    return 0


def _count_bits(c, args, result, state):
    c["exact.order_sum"] += len(args[0])
    values = result if isinstance(result, list) else [result]
    c["exact.max_bits"] = max([c["exact.max_bits"]] + [_bits(v) for v in values])


def _factor_state(args):
    # a GramMatrix factors on first use and caches the result in ``_factor``
    return getattr(args[0], "_factor", None) is None


def _count_factor(c, args, result, missed):
    if missed:
        n = args[0].matrix.shape[0]
        c["core.factor_misses"] += 1
        c["core.factor_flops"] += n ** 3 / 3.0
    else:
        c["core.factor_hits"] += 1


def _grounded_state(args):
    # a Network builds its grounded system on first solve and caches it in ``_grounded``
    return getattr(args[0], "_grounded", None) is None


def _count_grounded_solve(c, args, result, missed):
    rhs = args[1]
    c["network.solve_calls"] += 1
    c["network.solve_cols"] += 1 if rhs.ndim == 1 else rhs.shape[1]
    if missed:
        c["network.unknowns"] += len(args[0].vertices) - 1


def _count_cells(c, args, result, state):
    c["serialize.cells"] += len(args[1]) * len(args[2])


def _count_gram_entries(c, args, result, state):
    c["builtin.gram_entries"] += len(args[1]) ** 2


def _count_solve(c, args, result, state):
    c["core.solve_calls"] += 1


def _count_assemble(c, args, result, state):
    c["core.assemble_entries"] += result.matrix.size


def _count_stages(c, args, result, state):
    c["diagnostics.stages"] += len(result.values)


def _count_vertices(c, args, result, state):
    c["tree.vertices"] += len(result)


def _count_normals(c, args, result, state):
    # every draw pushes one normal per factor column; the benchmark's
    # covariances are full rank, so that is one per sampled vertex
    c["gff.normals"] += result.samples.size


# (owner, attribute, span name, pre-call hook, count hook) for the public
# functions on the benchmark's CLI paths.  The owner is a module, or
# "module:Class" for a method.
TARGETS = (
    ("rkhskit.serialize", "load_kernel_doc", "serialize.load", None, None),
    ("rkhskit.serialize", "write_matrix_csv", "serialize.write", None, _count_cells),
    ("rkhskit.serialize", "dump_json", "serialize.write", None, None),
    ("rkhskit.diagnostics", "trace", "diagnostics.trace", None, _count_stages),
    ("rkhskit.diagnostics", "det_ratio_trace", "diagnostics.det_ratio", None, None),
    ("rkhskit.diagnostics", "classify", "diagnostics.classify", None, None),
    ("rkhskit.diagnostics:Filtration", "prefixes", "diagnostics.filtration", None, None),
    ("rkhskit.diagnostics:Filtration", "doubling", "diagnostics.filtration", None, None),
    ("rkhskit.core", "assemble_gram", "core.assemble", None, _count_assemble),
    ("rkhskit.core:GramMatrix", "factorization", "core.factor", _factor_state, _count_factor),
    ("rkhskit.core", "solve_delta", "core.solve", None, _count_solve),
    ("rkhskit.core", "projection_norm_sq", "core.projection", None, None),
    ("rkhskit.core", "log_det", "core.log_det", None, None),
    ("rkhskit.builtin:BrownianKernel", "gram", "builtin.gram", None, _count_gram_entries),
    ("rkhskit.builtin:BridgeKernel", "gram", "builtin.gram", None, _count_gram_entries),
    ("rkhskit.builtin:BinomialKernel", "exact_gram", "builtin.gram", None, _count_gram_entries),
    ("rkhskit.exact", "int_solve", "exact.solve", None, _count_bits),
    ("rkhskit.exact", "int_det", "exact.det", None, _count_bits),
    ("rkhskit.exact", "exact_projection_norm", "exact.projection", None, None),
    ("rkhskit.exact", "exact_det_ratio", "exact.det_ratio", None, None),
    ("rkhskit.network:Network", "__init__", "network.build", None, None),
    ("rkhskit.network:Network", "from_json", "network.build", None, None),
    ("rkhskit.network:Network", "grounded_solve", "network.solve", _grounded_state, _count_grounded_solve),
    ("rkhskit.network:Network", "green_matrix", "network.green", None, None),
    ("rkhskit.network:Network", "grounded_vertices", "network.grounded_vertices", None, None),
    ("rkhskit.network:GreenKernel", "gram", "network.kernel", None, None),
    ("rkhskit.network", "green_kernel", "network.kernel", None, None),
    ("rkhskit.network", "resistance", "network.resistance", None, None),
    ("rkhskit.tree", "build_tree", "tree.build", None, _count_vertices),
    ("rkhskit.tree", "boundary_resistance", "tree.boundary", None, None),
    ("rkhskit.tree", "parse_word", "tree.parse", None, None),
    ("rkhskit.tree:LevelWeights", "parse", "tree.parse", None, None),
    ("rkhskit.gff", "sample", "gff.sample", None, _count_normals),
    ("rkhskit.gff", "empirical_covariance", "gff.check", None, None),
    ("rkhskit.gff", "covariance_standard_error", "gff.check", None, None),
)


class Tracer:
    """Spans and counts of the traced jobs of one run."""

    def __init__(self):
        self.spans = []        # (job, name, start, end, parent index, raised)
        self.counts = Counter()
        self.job = None
        self.missing = []
        self._open = []        # indices of the spans now running
        self._patches = []

    def wrap(self, name, fn, pre=None, count=None):
        spans, opened, counts = self.spans, self._open, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = pre(args) if pre is not None else None
            idx = len(spans)
            spans.append(None)
            parent = opened[-1] if opened else None
            opened.append(idx)
            raised = True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                t1 = time.perf_counter()
                opened.pop()
                spans[idx] = (self.job, name, t0, t1, parent, raised)
            if count is not None:
                count(counts, args, result, state)
            return result

        return wrapper

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "rkhskit" or k.startswith("rkhskit.")]
        for owner, attr, name, pre, count in TARGETS:
            mod_name, _, cls_name = owner.partition(":")
            try:
                holder = importlib.import_module(mod_name)
                if cls_name:
                    holder = getattr(holder, cls_name)
                original = vars(holder)[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{owner}.{attr}")
                continue
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(name, original.__func__, pre, count))
            else:
                wrapped = self.wrap(name, original, pre, count)
            self._set(holder, attr, original, wrapped)
            if not cls_name:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original and mod is not holder:
                            self._set(mod, key, original, wrapped)

    def _set(self, holder, attr, original, wrapped):
        setattr(holder, attr, wrapped)
        self._patches.append((holder, attr, original))

    def uninstall(self):
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def _self_times(self):
        """(name, self seconds, raised) for every span."""
        covered = defaultdict(float)
        for span in self.spans:
            if span[4] is not None:
                covered[span[4]] += span[3] - span[2]
        for i, (_, name, t0, t1, _, raised) in enumerate(self.spans):
            yield name, (t1 - t0) - covered[i], raised

    def _outer_times(self):
        """Span time by name, skipping spans nested in one of the same name."""
        total = defaultdict(float)
        for _, name, t0, t1, parent, _ in self.spans:
            while parent is not None and self.spans[parent][1] != name:
                parent = self.spans[parent][4]
            if parent is None:
                total[name] += t1 - t0
        return total

    def metrics(self, jobs: int, output_bytes: int) -> dict:
        """Per-layer totals over the traced jobs, divided by their number."""
        self_by_name = defaultdict(float)
        calls, errors = Counter(), Counter()
        for name, self_s, raised in self._self_times():
            self_by_name[name] += self_s
            layer = name.partition(".")[0]
            calls[layer] += 1
            errors[layer] += raised
        errors["cli"] += self.counts["cli.errors"]
        out = {}
        per = 1.0 / max(jobs, 1)
        for layer in LAYERS:
            layer_self = sum(v for k, v in self_by_name.items() if k.partition(".")[0] == layer)
            out[f"{layer}.calls"] = (calls[layer] * per, "calls/job")
            out[f"{layer}.self_s"] = (layer_self * per, "s/job")
            out[f"{layer}.errors"] = (errors[layer] * per, "errors/job")
        outer = self._outer_times()
        for name in TIMED_SPANS:
            seconds = self_by_name[name] if name in SELF_TIMED else outer[name]
            out[f"{name}_s"] = (seconds * per, "s/job")
        counts = dict(self.counts, **{"serialize.bytes": output_bytes})
        for name, unit in COUNTS.items():
            out[name] = (counts.get(name, 0) * per, unit)
        for name, unit in MAXIMA.items():
            out[name] = (self.counts[name], unit)
        return out

    def span_table(self) -> list:
        """(name, calls, self seconds) for every span name, largest self first."""
        table = defaultdict(lambda: [0, 0.0])
        for name, self_s, _ in self._self_times():
            table[name][0] += 1
            table[name][1] += self_s
        return sorted(((k, c, s) for k, (c, s) in table.items()), key=lambda r: -r[2])
