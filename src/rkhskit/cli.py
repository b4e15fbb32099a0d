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
from .builtin import binomial_eval
from .core import assemble_gram, check_domain
from .diagnostics import Filtration, classify, trace
from .errors import MonotonicityViolation, RKHSKitError
from .network import Network, delta_norm_sq, green_kernel, resistance
from .reproduce import SUITES
from .serialize import dump_json, fmt, load_kernel_doc, write_matrix_csv
from .tree import LevelWeights, boundary_resistance, energy_histogram, parse_word

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_REPRODUCE = 3

DEFAULT_SEED = 42
STAGES = ("prefix", "doubling")
SUITE_OPTIONS = {"tree": ("depth",), "gff": ("n", "seed")}


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _opt(args, config: dict, name: str, default):
    """Flag value if given, else config value, else default."""
    val = getattr(args, name.replace("-", "_"), None)
    if val is not None:
        return val
    return config.get(name, default)


def _int_opt(args, config: dict, name: str, default) -> int:
    """:func:`_opt` for an integer option: a config value must be a JSON
    integer, so 2.5 or ``true`` is refused rather than truncated."""
    val = _opt(args, config, name, default)
    if isinstance(val, bool) or not isinstance(val, int):
        raise ValueError(f"option {name!r} must be an integer, got {val!r}")
    return val


def _str_opt(args, config: dict, name: str, default):
    """:func:`_opt` for a string option: a config value must be a JSON
    string, so 1 or ``true`` is refused rather than opened as a file
    descriptor or parsed."""
    val = _opt(args, config, name, default)
    if name in config and not isinstance(val, str):
        raise ValueError(f"option {name!r} must be a string, got {val!r}")
    return val


def _float_opt(args, config: dict, name: str, default) -> float:
    """:func:`_opt` for a float option: a config value must be a JSON number
    that a float holds, so ``true`` or ``"1e-3"`` is refused rather than
    coerced."""
    val = _opt(args, config, name, default)
    if isinstance(val, (int, float)) and not isinstance(val, bool):
        with contextlib.suppress(OverflowError):  # an integer beyond the float range
            return float(val)
    raise ValueError(f"option {name!r} must be a finite number, got {val!r}")


@contextlib.contextmanager
def _output(path):
    """Yield stdout for ``None`` or ``-``, else a file closed on exit."""
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


def _cmd_kernel_eval(args, config) -> int:
    kernel, _ = load_kernel_doc(_load_json(args.input))
    x, y = json.loads(args.x), json.loads(args.y)
    check_domain(kernel, [x, y])
    if kernel.name == "binomial":
        print(binomial_eval(int(x), int(y)))
    else:
        print(fmt(kernel(x, y)))
    return EXIT_OK


def _cmd_kernel_gram(args, config) -> int:
    kernel, points = load_kernel_doc(_load_json(args.input))
    if len(points) == 0:  # assemble_gram's error, which the exact path never reaches
        raise ValueError("point set must be nonempty")
    with _output(_str_opt(args, config, "out", None)) as out:
        exact = kernel.exact_gram(points.labels)
        if exact is not None:
            write_matrix_csv(out, points.labels, exact)
        else:
            write_matrix_csv(out, points.labels, assemble_gram(kernel, points).matrix)
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


def _cmd_diagnose(args, config) -> int:
    stages = _str_opt(args, config, "stages", "prefix")
    if stages not in STAGES:  # argparse's choices guard only the flag
        raise ValueError(f"unknown stages {stages!r}; choose from {list(STAGES)}")
    doc = _load_json(args.input)
    kernel, points = load_kernel_doc(doc)
    if len(points) == 0:
        raise ValueError("empty point list")
    target = json.loads(args.target) if args.target is not None else points.labels[0]
    # the trace only reports stages containing the target, so lead with it
    labels = list(points.labels)
    if target in points:
        canonical = points.labels[points.index(target)]
        labels.remove(canonical)
        labels.insert(0, canonical)
        target = canonical
    filtration = (
        Filtration.doubling(labels, target) if stages == "doubling" else Filtration.prefixes(labels, target)
    )
    tr = trace(kernel, filtration)
    verdict = classify(
        tr,
        tau_stab=_float_opt(args, config, "tau-stab", 1e-10),
        tau_div=_float_opt(args, config, "tau-div", 1e-3),
        k=_int_opt(args, config, "k", 5),
    )
    with _output(_str_opt(args, config, "out", None)) as out:
        out.write("stage_index,stage_size,zeta_value,det_ratio,increment\r\n" + _diagnose_rows(tr))
        doc = _verdict_doc(verdict)
        if tr.det_ratio_unavailable is not None:
            doc["det_ratio_unavailable"] = tr.det_ratio_unavailable
        out.write(json.dumps(doc, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_network(args, config) -> int:
    net = Network.from_json(_load_json(args.network))
    if args.network_cmd == "green":
        kernel = green_kernel(net)
        with _output(_str_opt(args, config, "out", None)) as out:
            write_matrix_csv(out, kernel.points.labels, net.green_matrix())
        return EXIT_OK
    if args.network_cmd == "resistance":
        if (args.x is None) != (args.y is None):
            raise ValueError("resistance needs both --x and --y, or neither for the full matrix")
        if args.x is not None:
            with _output(_str_opt(args, config, "out", None)) as out:
                out.write(fmt(resistance(net, json.loads(args.x), json.loads(args.y))) + "\n")
            return EXIT_OK
        # R_xy = G_xx + G_yy - 2 G_xy with G zero on the base's row and
        # column; summed in pairs so R is exactly symmetric, zero on the diagonal
        base = net.index(net.base)
        green = np.insert(np.insert(net.green_matrix(), base, 0.0, axis=0), base, 0.0, axis=1)
        diag = np.diag(green)
        matrix = (diag[:, None] + diag[None, :]) - (green + green.T)
        with _output(_str_opt(args, config, "out", None)) as out:
            write_matrix_csv(out, net.vertices.labels, matrix)
        return EXIT_OK
    # delta-norm
    if args.x is None:
        raise ValueError("delta-norm needs --x")
    with _output(_str_opt(args, config, "out", None)) as out:
        out.write(fmt(delta_norm_sq(net, json.loads(args.x))) + "\n")
    return EXIT_OK


def _cmd_gff(args, config) -> int:
    net = Network.from_json(_load_json(args.network))
    kernel = green_kernel(net)
    gram = assemble_gram(kernel, kernel.points)
    n = _int_opt(args, config, "n", 1000)
    seed = _int_opt(args, config, "seed", DEFAULT_SEED)
    draws = gff.sample(gram, n, seed)
    if args.gff_cmd == "sample":
        with _output(_str_opt(args, config, "out", None)) as out:
            write_matrix_csv(out, gram.points.labels, draws.samples)
        return EXIT_OK
    emp = gff.empirical_covariance(draws)
    se = gff.covariance_standard_error(gram, n)
    worst = float(np.max(np.abs(emp - gram.matrix) / se))
    with _output(_str_opt(args, config, "out", None)) as out:
        write_matrix_csv(out, gram.points.labels, emp)
        out.write(
            json.dumps(
                {"n": n, "seed": seed, "max_deviation_in_standard_errors": float(worst)},
                sort_keys=True,
            )
            + "\n"
        )
    return EXIT_OK


def _cmd_tree(args, config) -> int:
    weights = LevelWeights.parse(_str_opt(args, config, "weights", "geometric:0.5"))
    if args.tree_cmd == "histogram":
        depth = _int_opt(args, config, "depth", 10)
        rows = energy_histogram(depth, weights)
        with _output(_str_opt(args, config, "out", None)) as out:
            writer = csv.writer(out)
            writer.writerow(["level", "energy", "multiplicity", "uses_level0_convention"])
            for row in rows:
                writer.writerow([row.level, fmt(row.energy), row.multiplicity, row.uses_level0])
            out.write(
                json.dumps(
                    {"weights": weights.spec(), "r0": weights.r(0), "depth": depth},
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


def _cmd_reproduce(args, config) -> int:
    name = args.name
    if name not in SUITES:
        raise ValueError(f"unknown reproduction {name!r}; choose from {sorted(SUITES)}")
    # a suite reads only the options it takes; one given neither by flag
    # nor by config keeps the suite's own default
    kwargs = {
        opt: _int_opt(args, config, opt, None)
        for opt in SUITE_OPTIONS.get(name, ())
        if getattr(args, opt) is not None or opt in config
    }
    checks = SUITES[name](**kwargs)
    failed = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {name}: {check.label} (observed={check.observed}, expected={check.expected})")
        failed += 0 if check.passed else 1
    print(f"{name}: {len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_REPRODUCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rkhskit", description=__doc__)
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="cmd", required=True)

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
    diag.add_argument("--stages", choices=STAGES)
    diag.add_argument("--tau-stab", type=float)
    diag.add_argument("--tau-div", type=float)
    diag.add_argument("--k", type=int)
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
        p.add_argument("--n", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out")

    treep = sub.add_parser("tree", help="dyadic tree energies and boundary resistances")
    tsub = treep.add_subparsers(dest="tree_cmd", required=True)
    thist = tsub.add_parser("histogram")
    thist.set_defaults(func=_cmd_tree)
    thist.add_argument("--depth", type=int)
    thist.add_argument("--weights")
    thist.add_argument("--out")
    tres = tsub.add_parser("resistance")
    tres.set_defaults(func=_cmd_tree)
    tres.add_argument("--weights")
    tres.add_argument("--w1", required=True, help="0/1 word, e.g. 0010")
    tres.add_argument("--w2", required=True)

    rep = sub.add_parser("reproduce", help="run a named reproduction suite")
    rep.set_defaults(func=_cmd_reproduce)
    rep.add_argument("name")
    rep.add_argument("--depth", type=int)
    rep.add_argument("--n", type=int)
    rep.add_argument("--seed", type=int)

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
        return args.func(args, config)
    except MonotonicityViolation as err:
        print(f"numerical breakdown: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (RKHSKitError, ValueError, TypeError, OSError, json.JSONDecodeError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
