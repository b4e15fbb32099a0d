"""Command-line front door.

Subcommands: ``kernel eval|gram``, ``diagnose``, ``network
green|resistance|delta-norm``, ``gff sample|check``, ``tree
histogram|resistance``, and ``reproduce <name>``.  Options may come from a
JSON config file via ``--config``; explicit flags win.  Exit codes: 0 ok,
1 bad input or usage, 2 numerical breakdown (monotonicity violation), 3 a
reproduction check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import sys
from dataclasses import asdict, is_dataclass

import numpy as np

from . import gff
from .core import PointSet, assemble_gram, check_domain
from .diagnostics import ClassifyPolicy, Filtration, classify, trace
from .errors import MonotonicityViolation, RKHSKitError
from .network import Network, delta_norm_sq, green_kernel, resistance
from .reproduce import SUITES
from .serialize import dump_json, fmt, load_kernel_doc, write_matrix_csv
from .tree import LevelWeights, boundary_resistance, energy_histogram, parse_word

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_REPRODUCE = 3


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


class _Given(argparse.Action):
    """Store an option's value and add its dest to the namespace's ``given``
    set, so that a config fills only what the command line left out."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        vars(namespace).setdefault("given", set()).add(self.dest)


class _Parser(argparse.ArgumentParser):
    """Subcommand parser whose options record themselves as given (see
    :class:`_Given`); ``add_subparsers`` hands the class on to nested ones."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _Given)


def _config_value(action, name: str, value):
    """A config value for ``action`` checked as its flag is: a JSON integer
    for ``type=int`` (2.5 or ``true`` is never truncated), a JSON number that
    a float holds for ``type=float``, a JSON string otherwise (1 is never
    opened as a file descriptor), and one of the flag's choices."""
    if action.type is int:
        ok, kind = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif action.type is float:
        ok, kind = False, "a finite number"
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            with contextlib.suppress(OverflowError):  # an integer beyond the float range
                value, ok = float(value), True
    else:
        ok, kind = isinstance(value, str), "a string"
    if not ok:
        raise ValueError(f"option {name!r} must be {kind}, got {value!r}")
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"option {name!r} must be one of {list(action.choices)}, got {value!r}")
    return value


def _apply_config(parser, args, config: dict) -> None:
    """Fill each option of the chosen subcommand that the command line did
    not give from the config key of the same name.  Keys the subcommand does
    not take are ignored; required options come only from the command line."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return _apply_config(action.choices[getattr(args, action.dest)], args, config)
    given = vars(args).setdefault("given", set())
    for action in parser._actions:
        if not isinstance(action, _Given) or action.required or action.dest in given:
            continue
        name = action.option_strings[0][2:]
        if name in config:
            setattr(args, action.dest, _config_value(action, name, config[name]))
            given.add(action.dest)


@contextlib.contextmanager
def _output(path):
    """Yield stdout for ``None`` or ``-``, else a file closed on exit.
    Opening truncates the file, so a command computes first and opens its
    ``--out`` only to write: a failed command leaves the file as it was."""
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _verdict_doc(verdict) -> dict:
    doc = {"verdict": type(verdict).__name__}
    if is_dataclass(verdict):
        fields = asdict(verdict)
        policy = fields.pop("policy", None)
        doc.update(fields)
        if policy:
            doc["tolerances"] = policy
    return doc


def _cmd_kernel_eval(args) -> int:
    kernel, points = load_kernel_doc(_load_json(args.input))
    x, y = json.loads(args.x), json.loads(args.y)
    check_domain(kernel, [*points.labels, x, y])
    exact = kernel.exact_gram([x, y])
    print(exact[0][1] if exact is not None else fmt(kernel(x, y)))
    return EXIT_OK


def _cmd_kernel_gram(args) -> int:
    kernel, points = load_kernel_doc(_load_json(args.input))
    if len(points) == 0:  # assemble_gram's error, which the exact path never reaches
        raise ValueError("point set must be nonempty")
    matrix = kernel.exact_gram(points.labels)
    if matrix is None:
        matrix = assemble_gram(kernel, points).matrix
    with _output(args.out) as out:
        write_matrix_csv(out, points.labels, matrix)
    return EXIT_OK


def _diagnose_rows(tr) -> str:
    """The diagnose table's rows as the csv module writes them, from one row
    template: exact values through :func:`fmt`, floats as ``%.17g``, a blank
    det_ratio column when the trace has no ratios and a blank first increment."""
    exact, ratios = tr.exact_values is not None, tr.det_ratios
    columns = [tr.stage_indices, tr.stage_sizes,
               [fmt(v) for v in tr.exact_values] if exact else tr.values.tolist()]
    if ratios is not None:
        columns.append(ratios.tolist())
    row = "%d,%d," + ("%s," if exact else "%.17g,") + ("" if ratios is None else "%.17g")
    first, *rest = zip(*columns)
    cells = [x for stage, inc in zip(rest, np.diff(tr.values).tolist()) for x in (*stage, inc)]
    return row % first + ",\r\n" + ((row + ",%.17g\r\n") * len(rest)) % tuple(cells)


def _cmd_diagnose(args) -> int:
    kernel, points = load_kernel_doc(_load_json(args.input))
    if len(points) == 0:
        raise ValueError("empty point list")
    target = json.loads(args.target) if args.target is not None else points.labels[0]
    # the trace only reports stages containing the target, so lead with it;
    # the document's labels are canonical already
    if target in points:
        i = points.index(target)
        target = points.labels[i]
        points = PointSet.canonical((target,) + points.labels[:i] + points.labels[i + 1:])
    stages = Filtration.doubling if args.stages == "doubling" else Filtration.prefixes
    tr = trace(kernel, stages(points, target))
    verdict = classify(tr, tau_stab=args.tau_stab, tau_div=args.tau_div, k=args.k)
    with _output(args.out) as out:
        out.write("stage_index,stage_size,zeta_value,det_ratio,increment\r\n" + _diagnose_rows(tr))
        doc = _verdict_doc(verdict)
        if tr.det_ratio_unavailable is not None:
            doc["det_ratio_unavailable"] = tr.det_ratio_unavailable
        out.write(json.dumps(doc, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_network(args) -> int:
    net = Network.from_json(_load_json(args.network))
    if args.network_cmd == "green":
        labels, green = green_kernel(net).points.labels, net.green_matrix()
        with _output(args.out) as out:
            write_matrix_csv(out, labels, green)
        return EXIT_OK
    if args.network_cmd == "resistance":
        if (args.x is None) != (args.y is None):
            raise ValueError("resistance needs both --x and --y, or neither for the full matrix")
        if args.x is not None:
            value = resistance(net, json.loads(args.x), json.loads(args.y))
            with _output(args.out) as out:
                out.write(fmt(value) + "\n")
            return EXIT_OK
        # R_xy = G_xx + G_yy - 2 G_xy with G zero on the base's row and
        # column; summed in pairs so R is exactly symmetric, zero on the diagonal
        green = net.grounded_solve(np.eye(len(net)))
        diag = np.diag(green)
        matrix = (diag[:, None] + diag[None, :]) - (green + green.T)
        with _output(args.out) as out:
            write_matrix_csv(out, net.vertices.labels, matrix)
        return EXIT_OK
    # delta-norm
    if args.x is None:
        raise ValueError("delta-norm needs --x")
    value = delta_norm_sq(net, json.loads(args.x))
    with _output(args.out) as out:
        out.write(fmt(value) + "\n")
    return EXIT_OK


def _cmd_gff(args) -> int:
    net = Network.from_json(_load_json(args.network))
    kernel = green_kernel(net)
    gram = assemble_gram(kernel, kernel.points)
    draws = gff.sample(gram, args.n, args.seed)
    if args.gff_cmd == "sample":
        with _output(args.out) as out:
            write_matrix_csv(out, gram.points.labels, draws.samples)
        return EXIT_OK
    emp = gff.empirical_covariance(draws)
    se = gff.covariance_standard_error(gram, args.n)
    worst = float(np.max(np.abs(emp - gram.matrix) / se))
    with _output(args.out) as out:
        write_matrix_csv(out, gram.points.labels, emp)
        out.write(
            json.dumps(
                {"n": args.n, "seed": args.seed, "max_deviation_in_standard_errors": float(worst)},
                sort_keys=True,
            )
            + "\n"
        )
    return EXIT_OK


def _cmd_tree(args) -> int:
    weights = LevelWeights.parse(args.weights)
    if args.tree_cmd == "histogram":
        rows = energy_histogram(args.depth, weights)
        with _output(args.out) as out:
            writer = csv.writer(out)
            writer.writerow(["level", "energy", "multiplicity", "uses_level0_convention"])
            for row in rows:
                writer.writerow([row.level, fmt(row.energy), row.multiplicity, row.uses_level0])
            out.write(
                json.dumps(
                    {"weights": weights.spec(), "r0": weights.r(0), "depth": args.depth},
                    sort_keys=True,
                )
                + "\n"
            )
        return EXIT_OK
    w1, w2 = parse_word(args.w1), parse_word(args.w2)
    br = boundary_resistance(w1, w2, weights)
    doc = {
        "meet_level": br.meet,
        "truncation": br.truncation,
        "series_sum": br.series_sum,
        "network_value": br.network_value,
        "tail_value": br.tail_value,
    }
    dump_json(doc, sys.stdout)
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    name = args.suite
    # an option given neither by flag nor by config keeps the suite's default
    checks = SUITES[name](**{dest: getattr(args, dest) for dest in vars(args).get("given", ())})
    failed = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {name}: {check.label} (observed={check.observed}, expected={check.expected})")
        failed += 0 if check.passed else 1
    print(f"{name}: {len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_REPRODUCE


def build_parser() -> argparse.ArgumentParser:
    """The one declaration of every subcommand and option: name, type,
    choices and default.  A ``--config`` value is checked against it too."""
    parser = argparse.ArgumentParser(prog="rkhskit", description=__doc__)
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    kernel = sub.add_parser("kernel", help="evaluate a kernel or export its Gram matrix")
    ksub = kernel.add_subparsers(dest="kernel_cmd", required=True)
    keval = ksub.add_parser("eval")
    keval.set_defaults(func=_cmd_kernel_eval)
    keval.add_argument("--input", required=True, help="kernel document (JSON)")
    keval.add_argument("--x", required=True)
    keval.add_argument("--y", required=True)
    kgram = ksub.add_parser("gram")
    kgram.set_defaults(func=_cmd_kernel_gram)
    kgram.add_argument("--input", required=True)
    kgram.add_argument("--out")

    diag = sub.add_parser("diagnose", help="trace point-mass projection norms over a filtration")
    diag.set_defaults(func=_cmd_diagnose)
    diag.add_argument("--input", required=True, help="kernel document (JSON)")
    diag.add_argument("--target", help="target point (JSON literal); default: first point")
    diag.add_argument("--stages", choices=("prefix", "doubling"), default="prefix")
    diag.add_argument("--tau-stab", type=float, default=ClassifyPolicy.tau_stab)
    diag.add_argument("--tau-div", type=float, default=ClassifyPolicy.tau_div)
    diag.add_argument("--k", type=int, default=ClassifyPolicy.k)
    diag.add_argument("--out")

    network = sub.add_parser("network", help="network quantities")
    nsub = network.add_subparsers(dest="network_cmd", required=True)
    for name in ("green", "resistance", "delta-norm"):
        p = nsub.add_parser(name)
        p.set_defaults(func=_cmd_network)
        p.add_argument("--network", required=True, help="network document (JSON)")
        p.add_argument("--out")
        if name != "green":
            p.add_argument("--x")
        if name == "resistance":
            p.add_argument("--y")

    gffp = sub.add_parser("gff", help="sample a Gaussian field on a network")
    gsub = gffp.add_subparsers(dest="gff_cmd", required=True)
    for name in ("sample", "check"):
        p = gsub.add_parser(name)
        p.set_defaults(func=_cmd_gff)
        p.add_argument("--network", required=True)
        p.add_argument("--n", type=int, default=1000)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--out")

    treep = sub.add_parser("tree", help="dyadic tree energies and boundary resistances")
    tsub = treep.add_subparsers(dest="tree_cmd", required=True)
    thist = tsub.add_parser("histogram")
    thist.set_defaults(func=_cmd_tree)
    thist.add_argument("--depth", type=int, default=10)
    thist.add_argument("--weights", default="geometric:0.5")
    thist.add_argument("--out")
    tres = tsub.add_parser("resistance")
    tres.set_defaults(func=_cmd_tree)
    tres.add_argument("--weights", default="geometric:0.5")
    tres.add_argument("--w1", required=True, help="0/1 word, e.g. 0010")
    tres.add_argument("--w2", required=True)

    rep = sub.add_parser("reproduce", help="run a named reproduction suite")
    rep.set_defaults(func=_cmd_reproduce)
    rsub = rep.add_subparsers(dest="suite", required=True)
    suites = {name: rsub.add_parser(name) for name in SUITES}
    # no defaults: an option left out keeps the suite function's own
    suites["tree"].add_argument("--depth", type=int)
    suites["gff"].add_argument("--n", type=int)
    suites["gff"].add_argument("--seed", type=int)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import; parsing leaves it unchanged,
    # so one parser serves every later call in the process
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on a usage error, the code for numerical breakdown;
        # --help exits 0
        if err.code == 0:
            raise
        return EXIT_INPUT
    config = {}
    if args.config:
        try:
            config = _load_json(args.config)
        except (OSError, json.JSONDecodeError) as err:
            print(f"error: cannot read config: {err}", file=sys.stderr)
            return EXIT_INPUT
        if not isinstance(config, dict):
            print(f"error: config {args.config} must hold a JSON object", file=sys.stderr)
            return EXIT_INPUT
    try:
        if config:
            _apply_config(_parser(), args, config)
        return args.func(args)
    except MonotonicityViolation as err:
        print(f"numerical breakdown: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (RKHSKitError, ValueError, TypeError, OverflowError, OSError, json.JSONDecodeError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
