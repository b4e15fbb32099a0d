"""Interchange formats and the command-line front door."""

import argparse
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rkhskit
import rkhskit.cli as cli
from rkhskit import (
    BinomialKernel,
    BrownianKernel,
    DomainMismatch,
    LevelWeights,
    MonotonicityViolation,
    Network,
    TableKernel,
    assemble_gram,
    build_tree,
    resistance,
)
from rkhskit.serialize import (
    fmt,
    kernel_doc,
    load_kernel_doc,
    read_matrix_csv,
    write_matrix_csv,
)


class TestFormatting:
    def test_floats_round_trip(self):
        rng = np.random.default_rng(2)
        for x in rng.normal(scale=1e6, size=200):
            assert float(fmt(float(x))) == float(x)

    def test_integers_stay_integers(self):
        assert fmt(10 ** 30) == str(10 ** 30)
        assert fmt(3) == "3"


class TestKernelDocs:
    def test_builtin_round_trip(self):
        for kind in ("brownian", "bridge"):
            doc = {"kernel": {"type": kind}, "points": [0.25, 0.5]}
            kernel, points = load_kernel_doc(doc)
            assert kernel.name == kind
            assert points.labels == (0.25, 0.5)
            assert kernel_doc(kernel, points) == doc

    def test_binomial_points_coerced_to_int(self):
        kernel, points = load_kernel_doc({"kernel": {"type": "binomial"}, "points": [0, 1.0, 2]})
        assert kernel.name == "binomial"
        assert points.labels == (0, 1, 2)
        assert all(isinstance(x, int) for x in points)
        with pytest.raises(DomainMismatch, match="nonnegative integers"):
            load_kernel_doc({"kernel": {"type": "binomial"}, "points": [0, 1.5]})

    def test_table_round_trip(self):
        doc = {
            "kernel": {"type": "table", "labels": [0, 1], "entries": [[1.0, 0.5], [0.5, 2.0]]},
            "points": [0, 1],
        }
        kernel, points = load_kernel_doc(doc)
        assert isinstance(kernel, TableKernel)
        assert kernel_doc(kernel, points) == doc

    def test_network_kernel_defaults_to_grounded_vertices(self):
        net = Network(["o", "a", "b"], "o", [("o", "a", 1.0), ("a", "b", 1.0)])
        doc = {"kernel": {"type": "network", "network": net.to_json()}}
        kernel, points = load_kernel_doc(doc)
        assert points.labels == ("a", "b")
        assert kernel("b", "b") == pytest.approx(2.0)

    def test_bad_documents(self):
        with pytest.raises(ValueError):
            load_kernel_doc({"points": [1]})
        with pytest.raises(ValueError):
            load_kernel_doc({"kernel": {"type": "unknown"}, "points": [1]})
        with pytest.raises(ValueError):
            load_kernel_doc({"kernel": {"type": "brownian"}})
        with pytest.raises(ValueError, match="'points' list"):  # not one point per character
            load_kernel_doc({"kernel": {"type": "network", "network": {
                "vertices": ["o", "a", "b"], "base": "o", "edges": [["o", "a", 1], ["a", "b", 1]],
            }}, "points": "ab"})


class TestMatrixCSV:
    def test_round_trip(self):
        gram = assemble_gram(BrownianKernel(), [1.5, 2.5])
        buf = io.StringIO()
        write_matrix_csv(buf, gram.points.labels, gram.matrix)
        labels, matrix = read_matrix_csv(io.StringIO(buf.getvalue()))
        assert labels == [1.5, 2.5]
        assert np.array_equal(matrix, gram.matrix)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            read_matrix_csv(io.StringIO(""))

    def test_tuple_labels_round_trip_as_json_arrays(self):
        buf = io.StringIO()
        write_matrix_csv(buf, [(), (0,), (0, 1)], np.eye(3))
        assert buf.getvalue().splitlines()[0] == '[],[0],"[0, 1]"'
        labels, matrix = read_matrix_csv(io.StringIO(buf.getvalue()))
        assert labels == [(), (0,), (0, 1)]
        assert np.array_equal(matrix, np.eye(3))


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture
def brownian_doc(tmp_path):
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({"kernel": {"type": "brownian"}, "points": list(range(1, 11))}))
    return str(path)


@pytest.fixture
def tree_doc(tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(build_tree(2, LevelWeights.geometric(0.5)).to_json()))
    return str(path)


@pytest.fixture
def network_doc(tmp_path):
    net = Network.coordinate_path([1.0, 2.0, 3.0])
    path = tmp_path / "net.json"
    path.write_text(json.dumps(net.to_json()))
    return str(path)


class TestDiagnoseCommand:
    def test_brownian_stabilizes(self, brownian_doc, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = run_cli("diagnose", "--input", brownian_doc, "--target", "1", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == ["stage_index", "stage_size", "zeta_value", "det_ratio", "increment"]
        verdict = json.loads(lines[-1])
        assert verdict["verdict"] == "Stabilized"
        assert verdict["stage"] == 2
        assert verdict["limit"] == pytest.approx(2.0)
        assert verdict["tolerances"]["k"] == 5

    def test_target_moved_to_front(self, tmp_path):
        # an accumulation set given in increasing order still traces its target
        doc = tmp_path / "acc.json"
        pts = [1 - 1 / n for n in range(2, 40)] + [1.0]
        doc.write_text(json.dumps({"kernel": {"type": "brownian"}, "points": pts}))
        out = tmp_path / "trace.csv"
        code = run_cli("diagnose", "--input", str(doc), "--target", "1.0", "--out", str(out))
        assert code == 0
        verdict = json.loads(out.read_text().strip().splitlines()[-1])
        assert verdict["verdict"] == "Diverging"

    def test_doubling_stages(self, brownian_doc, tmp_path):
        out = tmp_path / "trace.csv"
        code = run_cli(
            "diagnose", "--input", brownian_doc, "--target", "1",
            "--stages", "doubling", "--k", "3", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        sizes = [int(line.split(",")[1]) for line in lines[1:-1]]
        assert sizes == [1, 2, 4, 8, 10]
        assert json.loads(lines[-1])["verdict"] == "Stabilized"

    def test_binomial_exact_column(self, tmp_path):
        doc = tmp_path / "bin.json"
        doc.write_text(json.dumps({"kernel": {"type": "binomial"}, "points": list(range(13))}))
        out = tmp_path / "trace.csv"
        code = run_cli("diagnose", "--input", str(doc), "--target", "1", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        # target-first ordering: stages {1}, {1,0}, {1,0,2}, ...
        assert lines[1].split(",")[2] == "0.5"
        assert lines[2].split(",")[2] == "1"  # exact integer, not 1.0000...
        assert lines[3].split(",")[2] == "5"
        verdict = json.loads(lines[-1])
        assert verdict["verdict"] == "Diverging"

    def test_binomial_target_resolves_through_the_points(self, tmp_path, capsys):
        # 2.5 is no point of the document and is never truncated to 2;
        # 2.0 is the point 2 and gives its table byte for byte
        doc = tmp_path / "bin.json"
        doc.write_text(json.dumps({"kernel": {"type": "binomial"}, "points": list(range(8))}))
        assert run_cli("diagnose", "--input", str(doc), "--target", "2.5", "--k", "3") == 1
        captured = capsys.readouterr()
        assert "never enters the filtration" in captured.err
        assert captured.out == ""
        assert run_cli("diagnose", "--input", str(doc), "--target", "2", "--k", "3") == 0
        want = capsys.readouterr().out
        assert run_cli("diagnose", "--input", str(doc), "--target", "2.0", "--k", "3") == 0
        assert capsys.readouterr().out == want

    def test_empty_points_is_input_error(self, tmp_path, capsys):
        doc = tmp_path / "empty.json"
        doc.write_text(json.dumps({"kernel": {"type": "brownian"}, "points": []}))
        assert run_cli("diagnose", "--input", str(doc)) == 1

    def test_missing_file_is_input_error(self):
        assert run_cli("diagnose", "--input", "/nonexistent.json") == 1

    def test_monotonicity_violation_exit_code(self, brownian_doc, monkeypatch):
        def boom(*args, **kwargs):
            raise MonotonicityViolation("lost accuracy")

        monkeypatch.setattr(cli, "trace", boom)
        assert run_cli("diagnose", "--input", brownian_doc) == 2

    def test_type_error_is_input_error(self, brownian_doc, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise TypeError("unsupported label")

        monkeypatch.setattr(cli, "trace", boom)
        assert run_cli("diagnose", "--input", brownian_doc) == 1
        assert "unsupported label" in capsys.readouterr().err

    def test_det_ratio_unavailable_gives_reason(self, tmp_path):
        # stage 3 is semidefinite: the trace exists, the determinant ratio does not
        doc = tmp_path / "semi.json"
        table = {"type": "table", "labels": [0, 1, 2], "entries": [[1, 0, 0], [0, 1, 1], [0, 1, 1]]}
        doc.write_text(json.dumps({"kernel": table, "points": [0, 1, 2]}))
        out = tmp_path / "trace.csv"
        code = run_cli("diagnose", "--input", str(doc), "--target", "0", "--k", "2", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        rows = list(csv.reader(lines[1:-1]))
        assert [row[2] for row in rows] == ["1", "1", "1"]
        assert [row[3] for row in rows] == ["", "", ""]
        verdict = json.loads(lines[-1])
        assert verdict["verdict"] == "Stabilized"
        assert "strictly PD" in verdict["det_ratio_unavailable"]

    def test_no_reason_when_det_ratios_present(self, brownian_doc, tmp_path):
        out = tmp_path / "trace.csv"
        assert run_cli("diagnose", "--input", brownian_doc, "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert all(row[3] for row in csv.reader(lines[1:-1]))
        assert "det_ratio_unavailable" not in json.loads(lines[-1])

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--k", "0"], "k"),
            (["--k", "-3"], "k"),
            (["--tau-stab", "inf"], "tau_stab"),
            (["--tau-stab", "nan"], "tau_stab"),
            (["--tau-stab", "0"], "tau_stab"),
            (["--tau-div=-1e-3"], "tau_div"),
        ],
    )
    def test_bad_classify_options_exit_1(self, brownian_doc, flags, name, capsys):
        # neither numpy's broadcast error nor a JSON Infinity/NaN verdict
        assert run_cli("diagnose", "--input", brownian_doc, *flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {name} must be" in captured.err

    def test_config_stages_must_be_named(self, brownian_doc, tmp_path, capsys):
        # argparse's choices guard only the flag; a config's misspelling
        # must not run the prefix filtration
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stages": "doublng"}))
        assert run_cli("--config", str(cfg), "diagnose", "--input", brownian_doc) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'doublng'" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [["diagnose", "--k", "abc"], ["diagnose"], ["nosuch"], ["diagnose", "--stages", "bogus"]],
        ids=["bad-int", "missing-input", "unknown-command", "bad-choice"],
    )
    def test_usage_errors_exit_1(self, argv, capsys):
        # argparse's own exit code, 2, is the code for numerical breakdown
        assert run_cli(*argv) == cli.EXIT_INPUT
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("diagnose", "--help")
        assert info.value.code == 0
        assert "--stages" in capsys.readouterr().out


class TestKernelCommands:
    @pytest.mark.parametrize("argv", [("kernel", "gram"), ("diagnose",)], ids=["gram", "diagnose"])
    @pytest.mark.parametrize(
        "text",
        [
            '{"kernel": {"type": "brownian"}, "points": [1e400, 2]}',  # 1e400 parses to inf
            '{"kernel": {"type": "binomial"}, "points": [1.5, 2.7]}',  # never truncated to [1, 2]
        ],
        ids=["brownian-inf", "binomial-fraction"],
    )
    def test_points_outside_domain_exit_1(self, argv, text, tmp_path, capsys):
        doc = tmp_path / "k.json"
        doc.write_text(text)
        assert run_cli(*argv, "--input", str(doc)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: labels outside the domain of kernel")
        assert captured.out == ""

    def test_eval_brownian(self, brownian_doc, capsys):
        assert run_cli("kernel", "eval", "--input", brownian_doc, "--x", "3", "--y", "7") == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_eval_checks_the_document_points(self, tmp_path, capsys):
        doc = tmp_path / "k.json"
        doc.write_text(json.dumps({"kernel": {"type": "brownian"}, "points": [1, -1, 2]}))
        assert run_cli("kernel", "eval", "--input", str(doc), "--x", "1", "--y", "2") == 1
        captured = capsys.readouterr()
        assert captured.err == "error: labels outside the domain of kernel 'brownian' (finite positive reals): [-1]\n"
        assert captured.out == ""

    def test_eval_binomial_exact(self, tmp_path, capsys):
        doc = tmp_path / "bin.json"
        doc.write_text(json.dumps({"kernel": {"type": "binomial"}, "points": [0]}))
        assert run_cli("kernel", "eval", "--input", str(doc), "--x", "2", "--y", "3") == 0
        assert capsys.readouterr().out.strip() == "10"

    @pytest.mark.parametrize(
        "kind, x, y",
        [("binomial", "2.5", "3"), ("brownian", "-1", "2"), ("brownian", "2", "Infinity")],
        ids=["binomial-fraction", "brownian-negative", "brownian-inf"],
    )
    def test_eval_outside_domain_exit_1(self, kind, x, y, tmp_path, capsys):
        doc = tmp_path / "k.json"
        doc.write_text(json.dumps({"kernel": {"type": kind}, "points": [1]}))
        assert run_cli("kernel", "eval", "--input", str(doc), f"--x={x}", f"--y={y}") == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: labels outside the domain of kernel")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, points",
        [(("kernel", "eval", "--x", str(10**19), "--y", str(10**19)), [0]),
         (("diagnose",), [0, 10**19, 2 * 10**19])],
        ids=["eval", "diagnose"],
    )
    def test_binomial_beyond_the_comb_range_exits_1(self, argv, points, tmp_path, capsys):
        # C(2 * 10**19, 10**19) is past math.comb's range: an error line, no traceback
        doc = tmp_path / "k.json"
        doc.write_text(json.dumps({"kernel": {"type": "binomial"}, "points": points}))
        assert run_cli(*argv, "--input", str(doc)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [("kernel", "gram"), ("diagnose",)], ids=["gram", "diagnose"])
    @pytest.mark.parametrize("entry", ["1e400", "-1e400", "NaN"])
    def test_table_with_a_non_finite_entry_exits_1(self, argv, entry, tmp_path, capsys):
        doc = tmp_path / "k.json"
        doc.write_text('{"kernel": {"type": "table", "labels": [0, 1], "entries": [[1, 0], [0, %s]]}, '
                       '"points": [0, 1]}' % entry)
        assert run_cli(*argv, "--input", str(doc)) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: kernel table entries must be finite\n"  # no numpy warning
        assert captured.out == ""

    def test_gram_csv(self, tmp_path):
        doc = tmp_path / "k.json"
        doc.write_text(json.dumps({"kernel": {"type": "brownian"}, "points": [1, 2]}))
        out = tmp_path / "gram.csv"
        assert run_cli("kernel", "gram", "--input", str(doc), "--out", str(out)) == 0
        with open(out) as fh:
            labels, matrix = read_matrix_csv(fh)
        assert labels == [1, 2]
        assert matrix.tolist() == [[1.0, 1.0], [1.0, 2.0]]

    def test_gram_binomial_exact_integers(self, tmp_path):
        doc = tmp_path / "k.json"
        doc.write_text(json.dumps({"kernel": {"type": "binomial"}, "points": [0, 1, 2]}))
        out = tmp_path / "gram.csv"
        assert run_cli("kernel", "gram", "--input", str(doc), "--out", str(out)) == 0
        body = out.read_text()
        assert "1,1,1" in body.replace("\r", "")


class TestFailedCommandKeepsOut:
    """A command computes before it opens ``--out``, which truncates it, so
    one that fails leaves the file's bytes as they were."""

    KEPT = b"kept,bytes\r\n1,2\r\n"

    @pytest.mark.parametrize("command", ["kernel gram", "network green", "network resistance", "network delta-norm"])
    def test_out_unchanged_on_exit_1(self, command, network_doc, tmp_path, monkeypatch, capsys):
        bad_kernel = tmp_path / "kernel.json"
        bad_kernel.write_text(json.dumps({"kernel": {"type": "brownian"}, "points": [1, -2]}))
        argv = {
            "kernel gram": ["kernel", "gram", "--input", str(bad_kernel)],
            "network green": ["network", "green", "--network", network_doc],
            "network resistance": ["network", "resistance", "--network", network_doc, "--x", "1", "--y", "9"],
            "network delta-norm": ["network", "delta-norm", "--network", network_doc, "--x", "99"],
        }[command]
        if command == "network green":  # a valid document fails only where a fault is injected
            def fail(net):
                raise DomainMismatch("injected after the network is read")
            monkeypatch.setattr(Network, "green_matrix", fail)
        out = tmp_path / "keep.txt"
        out.write_bytes(self.KEPT)
        assert run_cli(*argv, "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_bytes() == self.KEPT


class TestNetworkTotals:
    """Finite edges whose sum at a vertex, its total conductance c(x), passes
    the float range are refused when the network is read."""

    OVERFLOW = {"vertices": ["o", "a", "b"], "base": "o", "edges": [["o", "a", 1e308], ["a", "b", 1e308]]}

    @pytest.mark.parametrize("argv", [
        ["network", "green"],
        ["network", "resistance"],
        ["network", "delta-norm", "--x", '"a"'],
        ["gff", "sample", "--n", "3", "--seed", "5"],
    ], ids=["green", "resistance", "delta-norm", "gff-sample"])
    def test_overflowing_total_exits_1(self, argv, tmp_path, capsys):
        doc = tmp_path / "net.json"
        doc.write_text(json.dumps(self.OVERFLOW))
        assert run_cli(*argv, "--network", str(doc)) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: total conductance at 'a' is beyond the float range\n"
        assert captured.out == ""

    def test_first_overflowing_vertex_is_named(self):
        edges = [("o", "a", 1e308), ("a", "b", 1e308), ("b", "c", 1e308)]
        with pytest.raises(ValueError, match="total conductance at 'b' is beyond"):
            Network(["o", "b", "a", "c"], "o", edges)

    def test_totals_below_the_float_maximum(self, tmp_path):
        doc = tmp_path / "net.json"
        doc.write_text(json.dumps({"vertices": ["o", "a", "b"], "base": "o",
                                   "edges": [["o", "a", 8e307], ["a", "b", 8e307]]}))
        out = tmp_path / "green.csv"
        assert run_cli("network", "green", "--network", str(doc), "--out", str(out)) == 0
        with open(out) as fh:
            labels, matrix = read_matrix_csv(fh)
        assert labels == ["a", "b"]
        assert np.allclose(matrix, [[1.25e-308, 1.25e-308], [1.25e-308, 2.5e-308]], rtol=1e-12, atol=0)


class TestNetworkCommands:
    def test_green_matrix_csv(self, network_doc, tmp_path):
        out = tmp_path / "green.csv"
        assert run_cli("network", "green", "--network", network_doc, "--out", str(out)) == 0
        with open(out) as fh:
            labels, matrix = read_matrix_csv(fh)
        assert labels == [1.0, 2.0, 3.0]
        want = np.minimum.outer(np.array(labels), np.array(labels))
        assert np.abs(matrix - want).max() <= 1e-9

    def test_resistance_pair(self, network_doc, capsys):
        assert run_cli("network", "resistance", "--network", network_doc, "--x", "1.0", "--y", "3.0") == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(2.0)

    def test_resistance_matrix(self, network_doc, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli("network", "resistance", "--network", network_doc, "--out", str(out)) == 0
        with open(out) as fh:
            labels, matrix = read_matrix_csv(fh)
        arr = np.array(labels)
        assert np.abs(matrix - np.abs(arr[:, None] - arr[None, :])).max() <= 1e-9

    @pytest.mark.parametrize("base", [0, 5])
    def test_resistance_matrix_matches_pair_resistances(self, tmp_path, base):
        rng = np.random.default_rng(4404)
        edges = []
        for v in range(16):
            if v % 4 < 3:
                edges.append([v, v + 1, float(rng.uniform(0.25, 4.0))])
            if v < 12:
                edges.append([v, v + 4, float(rng.uniform(0.25, 4.0))])
        net = Network(list(range(16)), base, edges)
        doc = tmp_path / "grid.json"
        doc.write_text(json.dumps(net.to_json()))
        out = tmp_path / "r.csv"
        assert run_cli("network", "resistance", "--network", str(doc), "--out", str(out)) == 0
        with open(out) as fh:
            labels, matrix = read_matrix_csv(fh)
        assert labels == list(range(16))
        want = np.array([[resistance(net, x, y) for y in labels] for x in labels])
        assert np.abs(matrix - want).max() <= 1e-12 * (1.0 + want.max())
        assert np.array_equal(matrix, matrix.T)
        assert not np.diag(matrix).any()

    @pytest.mark.parametrize("cmd", ["green", "resistance"])
    def test_infinite_conductance_exits_1(self, cmd, tmp_path, capsys):
        doc = tmp_path / "net.json"
        doc.write_text('{"vertices": [0, 1, 2], "base": 0, "edges": [[0, 1, Infinity], [1, 2, 1.0]]}')
        assert run_cli("network", cmd, "--network", str(doc)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: conductance on edge (0, 1) must be finite, got inf\n"

    def test_delta_norm(self, network_doc, capsys):
        assert run_cli("network", "delta-norm", "--network", network_doc, "--x", "2.0") == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "argv",
        [("resistance", "--x", "1.0", "--y", "3.0"), ("delta-norm", "--x", "2.0")],
        ids=["resistance", "delta-norm"],
    )
    def test_scalar_out_file_holds_the_stdout_bytes(self, network_doc, tmp_path, capsys, argv):
        cmd, *flags = argv
        assert run_cli("network", cmd, "--network", network_doc, *flags) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "scalar.txt"
        assert run_cli("network", cmd, "--network", network_doc, *flags, "--out", str(out)) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == printed == fmt(2.0) + "\n"

    @pytest.mark.parametrize("flag", ["--x", "--y"])
    def test_resistance_with_one_endpoint_exits_1(self, network_doc, capsys, flag):
        assert run_cli("network", "resistance", "--network", network_doc, flag, "1.0") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: resistance needs both --x and --y, or neither for the full matrix\n"

    @pytest.mark.parametrize(
        "edges, error",
        [([[1, 2, 10**400], [2, 3, 1]], "error: int too large to convert to float"),
         ([[1, 2, "x"], [2, 3, 10**400]], "error: could not convert string to float: 'x'"),
         ([[1, 2, 10**400], [2, 3]], "error: not enough values to unpack (expected 3, got 2)")],
        ids=["overflow", "earlier-edge-first", "unpacked-first"],
    )
    def test_conductance_beyond_the_float_range_exits_1(self, edges, error, tmp_path, capsys):
        doc = tmp_path / "net.json"
        doc.write_text(json.dumps({"vertices": [1, 2, 3], "base": 1, "edges": edges}))
        assert run_cli("network", "green", "--network", str(doc)) == 1
        captured = capsys.readouterr()
        assert captured.err == error + "\n"
        assert captured.out == ""

    def test_delta_norm_refuses_y(self, network_doc, capsys):
        assert run_cli("network", "delta-norm", "--network", network_doc, "--x", "2.0", "--y", "1.0") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --y 1.0" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [("network", "green"), ("network", "resistance"), ("gff", "sample", "--n", "20")],
        ids=["green", "resistance", "gff-sample"],
    )
    def test_tree_word_labels(self, tree_doc, tmp_path, argv):
        out = tmp_path / "out.csv"
        assert run_cli(*argv, "--network", tree_doc, "--out", str(out)) == 0
        with open(out) as fh:
            labels, matrix = read_matrix_csv(fh)
        words = [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
        assert labels == (words if argv[0] == "gff" or argv[1] == "green" else [()] + words)
        assert matrix.shape[1] == len(labels)


class TestGFFCommands:
    def test_sample_deterministic_bytes(self, network_doc, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code = run_cli(
                "gff", "sample", "--network", network_doc,
                "--n", "200", "--seed", "42", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        with open(a) as fh:
            labels, matrix = read_matrix_csv(fh)
        assert matrix.shape == (200, 3)

    def test_check_report(self, network_doc, tmp_path):
        out = tmp_path / "report.csv"
        code = run_cli(
            "gff", "check", "--network", network_doc,
            "--n", "5000", "--seed", "42", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        report = json.loads(lines[-1])
        assert report["max_deviation_in_standard_errors"] <= 5.0

    @pytest.mark.parametrize("seed", ["-1", str(2**128)])
    def test_seed_out_of_range_exits_1(self, network_doc, seed, capsys):
        assert run_cli("gff", "sample", "--network", network_doc, "--seed", seed) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_config_file_supplies_defaults_flags_win(self, network_doc, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 50, "seed": 1}))
        out = tmp_path / "s.csv"
        code = run_cli(
            "--config", str(cfg), "gff", "sample", "--network", network_doc,
            "--n", "20", "--out", str(out),
        )
        assert code == 0
        with open(out) as fh:
            _, matrix = read_matrix_csv(fh)
        assert matrix.shape[0] == 20  # flag beat the config value


class TestParserReuse:
    """One parser, built on the first call, serves every later main() call."""

    @staticmethod
    def _run(argv, out, capsys):
        out.unlink(missing_ok=True)
        try:
            code = cli.main(argv)
        except SystemExit as err:  # argparse rejects the command line
            code = err.code
        std = capsys.readouterr()
        return code, std.out, std.err, out.read_bytes() if out.exists() else None

    def test_call_sequence_matches_separate_runs(self, brownian_doc, network_doc, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stages": "doubling", "k": 3, "n": 7, "seed": 5}))
        out = tmp_path / "out.csv"
        calls = [
            ["--config", str(cfg), "diagnose", "--input", brownian_doc, "--target", "3", "--out", str(out)],
            ["diagnose", "--input", brownian_doc, "--out", str(out)],
            ["--config", str(cfg), "gff", "sample", "--network", network_doc, "--n", "3", "--out", str(out)],
            ["gff", "sample", "--network", network_doc, "--out", str(out)],
            ["diagnose", "--input", brownian_doc, "--stages", "bogus"],
            ["diagnose", "--input", brownian_doc, "--stages", "doubling", "--tau-stab", "1e-3"],
            ["diagnose", "--input", brownian_doc],
            ["network", "resistance", "--network", network_doc, "--x", "1.0", "--y", "3.0"],
            ["network", "resistance", "--network", network_doc],
            ["reproduce", "nope"],
            ["kernel", "eval", "--input", brownian_doc, "--x", "2", "--y", "3"],
        ]
        separate = []
        for argv in calls:
            cli._parser.cache_clear()  # what a fresh process starts from
            separate.append(self._run(argv, out, capsys))
        cli._parser.cache_clear()
        sequence = [self._run(argv, out, capsys) for argv in calls]
        assert cli._parser.cache_info().misses == 1
        assert sequence == separate
        assert [code for code, *_ in sequence] == [0, 0, 0, 0, 1, 1, 0, 0, 0, 1, 0]
        assert sequence[0][3] != sequence[1][3]  # the config's doubling stages did not stick


class TestConfigIntegers:
    """Integer options read from --config are refused unless they are JSON
    integers, never truncated or read from a bool."""

    @pytest.fixture
    def commands(self, brownian_doc, network_doc):
        return {
            "k": ["diagnose", "--input", brownian_doc],
            "n": ["gff", "sample", "--network", network_doc],
            "seed": ["gff", "sample", "--network", network_doc, "--n", "3"],
            "depth": ["tree", "histogram"],
        }

    @pytest.mark.parametrize(
        "name, value",
        [("k", 2.5), ("k", True), ("k", 2.0), ("n", 2.5), ("n", "3"), ("seed", True),
         ("seed", 1.5), ("depth", 9.9), ("depth", None)],
    )
    def test_non_integer_exits_1(self, commands, tmp_path, name, value, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: value}))
        assert run_cli("--config", str(cfg), *commands[name]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: option {name!r} must be an integer")

    @pytest.mark.parametrize("name, value", [("k", 3), ("n", 2), ("seed", 7), ("depth", 3)])
    def test_integer_runs(self, commands, tmp_path, name, value, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: value}))
        assert run_cli("--config", str(cfg), *commands[name]) == 0

    def test_tree_resistance_ignores_config_depth(self, tmp_path, capsys):
        # a truncation is the words' length; only the histogram takes --depth
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"depth": 2.5}))
        assert run_cli("--config", str(cfg), "tree", "resistance", "--w1", "0101", "--w2", "0110") == 0
        assert json.loads(capsys.readouterr().out)["truncation"] == 4


class TestConfigObject:
    """A config must be a JSON object: any other valid JSON is refused before
    a command runs, never half read or ignored."""

    @pytest.mark.parametrize("value", [[1, 2], 3, "x", None], ids=["list", "int", "str", "null"])
    @pytest.mark.parametrize("command", ["diagnose", "tree-resistance", "reproduce-tree"])
    def test_non_object_exits_1(self, brownian_doc, tmp_path, command, value, capsys):
        argv = {
            "diagnose": ["diagnose", "--input", brownian_doc],
            "tree-resistance": ["tree", "resistance", "--w1", "0101", "--w2", "0110"],
            "reproduce-tree": ["reproduce", "tree", "--depth", "2"],
        }[command]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(value))
        assert run_cli("--config", str(cfg), *argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.startswith("error: config") and str(cfg) in captured.err


class TestConfigFloats:
    """Classify tolerances read from --config are refused unless they are JSON
    numbers, never read from a bool or parsed from a string."""

    @pytest.mark.parametrize(
        "name, value",
        [("tau-stab", True), ("tau-stab", "1e-3"), ("tau-div", False), ("tau-div", "0.01"),
         ("tau-div", None), ("tau-stab", [1e-3]), pytest.param("tau-stab", 10**400, id="tau-stab-1e400")],
    )
    def test_non_number_exits_1(self, brownian_doc, tmp_path, name, value, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: value}))
        assert run_cli("--config", str(cfg), "diagnose", "--input", brownian_doc) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: option {name!r} must be a finite number")

    @pytest.mark.parametrize("name, value", [("tau-stab", 1e-3), ("tau-div", 1), ("tau-div", 0.5)])
    def test_number_runs(self, brownian_doc, tmp_path, name, value, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: value}))
        assert run_cli("--config", str(cfg), "diagnose", "--input", brownian_doc) == 0
        policy = json.loads(capsys.readouterr().out.splitlines()[-1])["tolerances"]
        assert policy[name.replace("-", "_")] == value

    def test_flag_wins_over_config(self, brownian_doc, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau-stab": True}))
        argv = ["--config", str(cfg), "diagnose", "--input", brownian_doc, "--tau-stab", "1e-3"]
        assert run_cli(*argv) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["tolerances"]["tau_stab"] == 1e-3


# runs diagnose twice in one process under the config in argv[1], then
# prints both exit codes: stdout must still be open for the print
TWICE = """
import json, sys
from rkhskit import cli
codes = [cli.main(["--config", sys.argv[1], "diagnose", "--input", sys.argv[2]]) for _ in range(2)]
print(json.dumps(codes))
"""


class TestConfigStrings:
    """String options read from --config are refused unless they are JSON
    strings: an integer or a bool ``out`` is never opened as a file
    descriptor, and a non-string ``weights`` or ``stages`` exits 1 with no
    traceback."""

    @pytest.mark.parametrize("value", [1, True, 7], ids=["fd-1", "true", "fd-7"])
    def test_integer_out_leaves_stdout_open(self, brownian_doc, tmp_path, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": value}))
        src = str(Path(rkhskit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        child = subprocess.run(
            [sys.executable, "-c", TWICE, str(cfg), brownian_doc], env=env, capture_output=True, text=True
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout == "[1, 1]\n"
        assert "Traceback" not in child.stderr
        assert child.stderr.splitlines() == [f"error: option 'out' must be a string, got {value!r}"] * 2

    @pytest.mark.parametrize("value", [2.5, ["x.csv"], {"path": "x.csv"}, None], ids=["float", "list", "object", "null"])
    def test_non_string_out_exits_1(self, brownian_doc, tmp_path, value, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": value}))
        assert run_cli("--config", str(cfg), "diagnose", "--input", brownian_doc) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: option 'out' must be a string")

    @pytest.mark.parametrize("value", [3, 0.5, True, ["geometric:0.5"], None], ids=["int", "float", "true", "list", "null"])
    @pytest.mark.parametrize(
        "argv",
        [("histogram", "--depth", "2"), ("resistance", "--w1", "0101", "--w2", "0110")],
        ids=["histogram", "resistance"],
    )
    def test_non_string_weights_exits_1(self, tmp_path, argv, value, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"weights": value}))
        assert run_cli("--config", str(cfg), "tree", *argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.startswith("error: option 'weights' must be a string")

    @pytest.mark.parametrize("value", [3, ["prefix"], None], ids=["int", "list", "null"])
    def test_non_string_stages_exits_1(self, brownian_doc, tmp_path, value, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stages": value}))
        assert run_cli("--config", str(cfg), "diagnose", "--input", brownian_doc) == 1
        assert capsys.readouterr().err.startswith("error: option 'stages' must be a string")

    def test_string_values_are_read(self, tmp_path, capsys):
        out = tmp_path / "hist.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": str(out), "weights": "constant:2", "depth": 3}))
        assert run_cli("--config", str(cfg), "tree", "histogram") == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text().splitlines()[-1]) == {"depth": 3, "r0": 2.0, "weights": "constant:2.0"}


def _subparsers(parser):
    return next((a for a in parser._actions if isinstance(a, argparse._SubParsersAction)), None)


def _leaf_options(parser=None, words=()):
    """(command, option) for every optional, non-required option of every
    leaf subcommand, read off the CLI's own parser."""
    parser = parser or cli._parser()
    sub = _subparsers(parser)
    if sub is not None:
        return [pair for word, child in sub.choices.items() for pair in _leaf_options(child, (*words, word))]
    return [(" ".join(words), action.option_strings[0][2:]) for action in parser._actions
            if action.option_strings and not action.required and not isinstance(action, argparse._HelpAction)]


def _action(command, name):
    parser = cli._parser()
    for word in command.split():
        parser = _subparsers(parser).choices[word]
    return next(a for a in parser._actions if a.option_strings == [f"--{name}"])


class TestConfigTable:
    """Every option a leaf subcommand takes reads a config value as its flag
    reads it: the same output, a wrong JSON type exits 1 naming the option,
    and a value outside the flag's choices exits 1 naming the value."""

    # per leaf subcommand: the command line it needs, and per option a config
    # value that changes the output
    CASES = {
        "kernel gram": (["--input", "{kernel}"], {"out": "{out}"}),
        "diagnose": (["--input", "{kernel}"], {"target": "5", "stages": "doubling", "tau-stab": 1e-3,
                                               "tau-div": 0.5, "k": 3, "out": "{out}"}),
        "network green": (["--network", "{network}"], {"out": "{out}"}),
        "network resistance": (["--network", "{network}"], {"out": "{out}", "x": "2.0", "y": "3.0"}),
        "network delta-norm": (["--network", "{network}"], {"out": "{out}", "x": "3.0"}),
        "gff sample": (["--network", "{network}"], {"n": 5, "seed": 7, "out": "{out}"}),
        "gff check": (["--network", "{network}"], {"n": 5, "seed": 7, "out": "{out}"}),
        "tree histogram": ([], {"depth": 3, "weights": "constant:2", "out": "{out}"}),
        "tree resistance": (["--w1", "0101", "--w2", "0110"], {"weights": "constant:2"}),
        "reproduce tree": ([], {"depth": 3}),
        "reproduce gff": ([], {"n": 300, "seed": 5}),
    }
    # flags a case needs beside its option: one resistance endpoint needs the
    # other, delta-norm needs its point, and 10 points double in 5 stages
    PARTNER = {("network resistance", "x"): ["--y", "3.0"], ("network resistance", "y"): ["--x", "1.0"],
               ("network delta-norm", "out"): ["--x", "3.0"], ("diagnose", "stages"): ["--k", "3"]}
    WRONG = {int: ("an integer", 2.5), float: ("a finite number", True), None: ("a string", 1)}

    @pytest.fixture
    def case(self, brownian_doc, network_doc, tmp_path, monkeypatch):
        from rkhskit.reproduce import Check

        def suite(**kwargs):  # prints the options it was called with
            return [Check(json.dumps(kwargs, sort_keys=True), True, 0, 0)]

        for name in cli.SUITES:
            monkeypatch.setitem(cli.SUITES, name, suite)
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        paths = {"kernel": brownian_doc, "network": network_doc, "out": str(out)}

        def make(command, name, value=None):
            argv, values = self.CASES[command]
            value = values[name] if value is None else value
            if isinstance(value, str):
                value = value.format(**paths)
            cfg.write_text(json.dumps({name: value}))
            base = [*command.split(), *(arg.format(**paths) for arg in argv), *self.PARTNER.get((command, name), [])]
            return base, value, cfg, out
        return make

    def test_every_option_has_a_case(self):
        assert sorted(_leaf_options()) == sorted((c, n) for c, (_, values) in self.CASES.items() for n in values)

    @pytest.mark.parametrize("command, name", _leaf_options())
    def test_config_value_reads_as_the_flag(self, case, command, name, capsys):
        base, value, cfg, out = case(command, name)
        flag = TestParserReuse._run([*base, f"--{name}", str(value)], out, capsys)
        config = TestParserReuse._run(["--config", str(cfg), *base], out, capsys)
        default = TestParserReuse._run(base, out, capsys)
        assert flag[0] == 0
        assert config == flag != default

    @pytest.mark.parametrize("command, name", _leaf_options())
    def test_wrong_json_type_exits_1(self, case, command, name, capsys):
        kind, bad = self.WRONG[_action(command, name).type]
        base, _, cfg, _ = case(command, name, bad)
        assert run_cli("--config", str(cfg), *base) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: option {name!r} must be {kind}, got {bad!r}\n"

    @pytest.mark.parametrize("command, name", [pair for pair in _leaf_options() if _action(*pair).choices])
    def test_value_outside_choices_exits_1(self, case, command, name, capsys):
        bad = f"{_action(command, name).choices[0]}x"
        base, _, cfg, _ = case(command, name, bad)
        assert run_cli("--config", str(cfg), *base) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert repr(bad) in captured.err


class TestTreeCommands:
    def test_histogram_csv(self, tmp_path):
        out = tmp_path / "hist.csv"
        code = run_cli(
            "tree", "histogram", "--depth", "4", "--weights", "geometric:0.5",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",")[:3] == ["level", "energy", "multiplicity"]
        meta = json.loads(lines[-1])
        assert meta["r0"] == 1.0
        rows = [line.split(",") for line in lines[1:-1]]
        assert [float(r[1]) for r in rows] == [5.0, 10.0, 20.0]

    def test_resistance_json(self, capsys):
        code = run_cli(
            "tree", "resistance", "--weights", "geometric:0.5",
            "--w1", "000000", "--w2", "100000",
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["meet_level"] == 0
        assert doc["network_value"] == pytest.approx(doc["series_sum"], rel=1e-9)
        assert doc["tail_value"] == pytest.approx(4.0)


    @pytest.mark.parametrize(
        "argv",
        [
            ("resistance", "--weights", "geometric:1e-200", "--w1", "000", "--w2", "001"),
            ("histogram", "--weights", "geometric:1e-200", "--depth", "4"),
            ("resistance", "--weights", "geometric:1e200", "--w1", "000", "--w2", "001"),
            ("histogram", "--weights", "constant:inf", "--depth", "4"),
            # r(2) = 1e-320 is subnormal: positive, but 1/r(2) overflows
            ("resistance", "--weights", "geometric:1e-160", "--w1", "000", "--w2", "001"),
            ("histogram", "--weights", "geometric:1e-160", "--depth", "3"),
        ],
        ids=[
            "resistance-underflow", "histogram-underflow", "resistance-overflow", "histogram-inf",
            "resistance-subnormal", "histogram-subnormal",
        ],
    )
    def test_degenerate_level_weights_exit_1(self, argv, capsys):
        assert run_cli("tree", *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "level" in err
        assert "Traceback" not in err


class TestOverflowDocuments:
    """A norm past the float range exits 1 with one line naming the target
    and the stage, and no numpy warning before it."""

    @pytest.mark.parametrize("points, target, named", [
        ([5e-324, 1.0], None, "5e-324"),
        ([1.0, 5e-324], "5e-324", "5e-324"),
        ([1e-310, 2e-310, 1.0], None, "1e-310"),
    ])
    def test_diagnose_names_target_and_stage(self, points, target, named, tmp_path, capsys):
        doc = tmp_path / "kernel.json"
        doc.write_text(json.dumps({"kernel": {"type": "brownian"}, "points": points}))
        flags = [] if target is None else ["--target", target]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("diagnose", "--input", str(doc), *flags) == 1
        assert [str(w.message) for w in caught] == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the projection norm of delta at {named} is beyond the float range at stage size 1\n"


class TestReproduceCommand:
    @pytest.mark.parametrize("name", ["brownian", "bridge", "network-path", "tree"])
    def test_suites_pass(self, name, capsys):
        assert run_cli("reproduce", name) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS" in out

    def test_binomial_suite(self, capsys):
        assert run_cli("reproduce", "binomial") == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_binomial_suite_checks_the_kernel(self, monkeypatch, capsys):
        # the factor check compares L L^t with the kernel's own exact Gram
        exact_gram = BinomialKernel.exact_gram

        def off_by_one(kernel, labels):
            out = exact_gram(kernel, labels)
            out[-1][-1] += 1
            return out

        monkeypatch.setattr(BinomialKernel, "exact_gram", off_by_one)
        assert run_cli("reproduce", "binomial") == cli.EXIT_REPRODUCE
        assert "FAIL binomial: K = L L^t exactly (n=12)" in capsys.readouterr().out

    def test_binomial_trace_values_are_checked(self, monkeypatch, capsys):
        from rkhskit import exact

        leading_minors = exact.leading_minors

        def bumped(matrix, target):
            minors, column = leading_minors(matrix, target)
            column[-1] += 1
            return minors, column

        monkeypatch.setattr(exact, "leading_minors", bumped)
        assert run_cli("reproduce", "binomial") == cli.EXIT_REPRODUCE
        out = capsys.readouterr().out
        assert "FAIL binomial: trace values equal sums of squared binomials for targets 0..3" in out
        assert out.count("FAIL") == 1

    def test_gff_suite_small(self, capsys):
        assert run_cli("reproduce", "gff", "--n", "4000") == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_unknown_name(self, capsys):
        assert run_cli("reproduce", "nope") == 1

    def test_tree_suite_solves_past_depth_12(self, capsys):
        # boundary_resistance solves no network past truncation 12; the
        # suite's check solves on the tree it builds, at any depth
        assert run_cli("reproduce", "tree", "--depth", "13") == 0
        assert "PASS tree: boundary resistance equals series sum (observed=3.99951171875, " in capsys.readouterr().out

    def test_config_depth_sets_tree_suite_depth(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"depth": 3}))
        assert run_cli("--config", str(cfg), "reproduce", "tree") == 0
        assert "(observed=6, expected=6)" in capsys.readouterr().out  # 2^3 - 2

    @pytest.mark.parametrize(
        "config, flags, expected",
        [({"n": 300, "seed": 5}, (), {"n": 300, "seed": 5}),
         ({"n": 300, "seed": 5}, ("--seed", "9"), {"n": 300, "seed": 9}),
         ({"depth": 2.5}, (), {})],
    )
    def test_config_sets_gff_suite_options(self, monkeypatch, tmp_path, config, flags, expected):
        from rkhskit.reproduce import Check

        seen = []
        monkeypatch.setitem(cli.SUITES, "gff", lambda **kw: seen.append(kw) or [Check("ok", True, 0, 0)])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("--config", str(cfg), "reproduce", "gff", *flags) == 0
        assert seen == [expected]

    @pytest.mark.parametrize(
        "name, config",
        [("tree", {"depth": 2.5}), ("tree", {"depth": None}), ("gff", {"n": 2.5}), ("gff", {"seed": True})],
    )
    def test_config_non_integer_exits_1(self, tmp_path, name, config, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("--config", str(cfg), "reproduce", name) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: option {next(iter(config))!r} must be an integer")

    @pytest.mark.parametrize(
        "name, config",
        [("binomial", {"depth": 2.5, "n": 2.5, "seed": "x"}), ("tree", {"n": 2.5, "seed": "x"})],
    )
    def test_config_options_of_other_suites_are_ignored(self, tmp_path, name, config, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("--config", str(cfg), "reproduce", name) == 0
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize("depth", [2, 13])
    def test_tree_histogram_energies_are_checked(self, depth, monkeypatch, capsys):
        import rkhskit.reproduce as reproduce

        histogram = reproduce.energy_histogram

        def tripled(depth, weights):
            return [dataclasses.replace(row, energy=3 * row.energy) for row in histogram(depth, weights)]

        monkeypatch.setattr(reproduce, "energy_histogram", tripled)
        assert run_cli("reproduce", "tree", "--depth", str(depth)) == cli.EXIT_REPRODUCE
        out = capsys.readouterr().out
        assert "FAIL tree: histogram energies equal c(x) on the tree (observed=2.0, " in out
        assert f"PASS tree: histogram multiplicities sum to 2^depth - 2 (observed={2 ** depth - 2}, " in out

    def test_gff_standard_errors_are_checked(self, monkeypatch, capsys):
        import rkhskit.gff as gff

        standard_error = gff.covariance_standard_error
        monkeypatch.setattr(gff, "covariance_standard_error", lambda gram, n: 100 * standard_error(gram, n))
        assert run_cli("reproduce", "gff", "--n", "4000") == cli.EXIT_REPRODUCE
        out = capsys.readouterr().out
        # the five-standard-error gate cannot see it
        assert "PASS gff: empirical covariance within 5 standard errors" in out
        assert "FAIL gff: standard errors equal sqrt((s t + min(s, t)^2) / n)" in out
        assert out.count("FAIL") == 1

    @pytest.mark.parametrize("n", [3, 20000])
    def test_gff_draws_are_checked(self, n, monkeypatch, capsys):
        import rkhskit.gff as gff

        sample = gff.sample

        def scaled(gram, n, seed):
            draws = sample(gram, n, seed)
            return dataclasses.replace(draws, samples=1.02 * draws.samples)

        monkeypatch.setattr(gff, "sample", scaled)
        assert run_cli("reproduce", "gff", "--n", str(n)) == cli.EXIT_REPRODUCE
        out = capsys.readouterr().out
        assert f"FAIL gff: first {min(8, n)} draws equal Philox normals times the factor" in out
        assert out.count("FAIL") == 1

    def test_gff_point_mass_variances_are_checked(self, monkeypatch, capsys):
        import rkhskit.gff as gff

        realization = gff.delta_realization
        monkeypatch.setattr(gff, "delta_realization", lambda *args: 1.1 * realization(*args))
        assert run_cli("reproduce", "gff", "--n", "4000") == cli.EXIT_REPRODUCE
        out = capsys.readouterr().out
        assert "FAIL gff: realized point-mass variance matches c(x)" in out
        assert out.count("FAIL") == 1

    def test_gff_reproducibility_is_checked(self, monkeypatch, capsys):
        import rkhskit.gff as gff

        sample, seeds = gff.sample, []

        def forgetful(gram, n, seed):
            # the second call with a seed draws from the next seed instead
            seeds.append(seed)
            return sample(gram, n, seed + seeds.count(seed) - 1)

        monkeypatch.setattr(gff, "sample", forgetful)
        assert run_cli("reproduce", "gff", "--n", "4000") == cli.EXIT_REPRODUCE
        out = capsys.readouterr().out
        assert "FAIL gff: same seed reproduces draws bit-exactly" in out
        assert out.count("FAIL") == 1

    def test_brownian_stabilization_is_checked(self, monkeypatch, capsys):
        # the first-point check reads the one-factor float trace; values
        # scaled by 1 + 1e-6 still stabilize at stage 2, at the wrong limit
        import rkhskit.diagnostics as diagnostics

        float_trace = diagnostics._float_trace

        def scaled(*args):
            values, ratios, reason = float_trace(*args)
            return [v * (1 + 1e-6) for v in values], ratios, reason

        monkeypatch.setattr(diagnostics, "_float_trace", scaled)
        assert run_cli("reproduce", "brownian") == cli.EXIT_REPRODUCE
        out = capsys.readouterr().out
        assert "FAIL brownian: first-point trace stabilizes at stage 2 (observed=Stabilized(limit=2.000002" in out
        assert out.count("FAIL") == 1

    def test_failing_check_exits_3(self, monkeypatch, capsys):
        from rkhskit.reproduce import Check

        monkeypatch.setitem(cli.SUITES, "brownian", lambda: [Check("forced", False, 0, 1)])
        assert run_cli("reproduce", "brownian") == 3
        assert "FAIL" in capsys.readouterr().out
