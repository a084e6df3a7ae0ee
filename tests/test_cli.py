"""Command-line interface: parsing, reports, exit codes, public surface."""

import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import lafr
from lafr import campaigns, cli, oracle
from lafr.cli import graph_from_token, main
from lafr.graphs import (
    cartesian_product,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    double_cone,
    empty_graph,
    parse_graph6,
    path_graph,
    to_graph6,
)
from lafr.reporting import build_analysis_report


class TestGraphTokens:
    def test_named_families(self):
        assert graph_from_token("K3") == complete_graph(3)
        assert graph_from_token("P4") == path_graph(4)
        assert graph_from_token("C6") == cycle_graph(6)
        assert graph_from_token("O2").num_edges == 0

    def test_graph6_fallback(self):
        assert graph_from_token("Bw") == complete_graph(3)


class TestAnalyze:
    def test_p3_json(self, capsys):
        assert main(["analyze", "--g6", to_graph6(path_graph(3)), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["graph"]["n"] == 3
        [decision] = report["decisions"]
        assert decision["pair"] == [0, 2]
        assert decision["status"] == "PROPER"
        assert decision["time"] == {"num": 2, "den": 3, "unit": "pi"}
        assert decision["phase"] == {"k": 1, "g": 3}
        assert decision["is_pst"] is False
        assert decision["oracle_residual"] <= 1e-9
        assert decision["oracle_verified"] is True

    def test_c6_three_pairs(self, capsys):
        assert main(["analyze", "--g6", to_graph6(cycle_graph(6)), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        proper = [d for d in report["decisions"] if d["status"] == "PROPER"]
        assert [d["pair"] for d in proper] == [[0, 3], [1, 4], [2, 5]]

    def test_k4_periodicity(self, capsys):
        assert main(["analyze", "--g6", to_graph6(complete_graph(4)), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["decisions"] == []
        for entry in report["periodicity"]:
            assert entry["periodic"] and entry["G"] == 4
            assert entry["period"] == {"num": 1, "den": 2, "unit": "pi"}

    def test_family_shorthand_matches_graph6(self, capsys):
        assert main(["analyze", "--g6", "C6", "--json"]) == 0
        short = json.loads(capsys.readouterr().out)
        assert main(["analyze", "--g6", to_graph6(cycle_graph(6)), "--json"]) == 0
        full = json.loads(capsys.readouterr().out)
        assert short["graph"] == full["graph"]
        assert short["decisions"] == full["decisions"]
        assert short["periodicity"] == full["periodicity"]

    def test_explicit_pairs(self, capsys):
        g6 = to_graph6(path_graph(4))
        assert main(["analyze", "--g6", g6, "--pairs", "0,3", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        [d] = report["decisions"]
        assert d["status"] == "NON_INTEGER_SUPPORT"

    def test_human_output_has_exact_times(self, capsys):
        assert main(["analyze", "--g6", to_graph6(path_graph(3))]) == 0
        out = capsys.readouterr().out
        assert "2/3 pi" in out and "PROPER" in out

    def test_parse_error_exit_code(self, capsys):
        assert main(["analyze", "--g6", "##"]) == 2

    def test_shorthand_without_vertices(self, capsys):
        assert main(["analyze", "--g6", "K0"]) == 2
        assert "vertex count must be positive" in capsys.readouterr().err

    def test_file_input(self, tmp_path, capsys):
        path = tmp_path / "graph.el"
        path.write_text("3\n0 1\n1 2\n")
        code = main(["analyze", "--file", str(path), "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["graph"]["graph6"] == to_graph6(path_graph(3))

    @pytest.mark.parametrize("prefix", ["", ">>graph6<<"], ids=["bare", "header"])
    def test_graph6_file_matches_token(self, tmp_path, capsys, prefix):
        def report(argv):
            assert main([*argv, "--json"]) == 0
            out = json.loads(capsys.readouterr().out)
            out.pop("runtime_seconds")
            return out

        g6 = to_graph6(cycle_graph(6))
        path = tmp_path / "c6.g6"
        path.write_text(f"{prefix}{g6}\n")
        assert report(["analyze", "--file", str(path)]) == report(["analyze", "--g6", g6])

    @pytest.mark.parametrize(
        "text",
        ["# the 3-path\n3\n0 1\n1 2\n", "+3\n0 1\n1 2\n", "\n  3 # order\n0 1\n1 2\n"],
        ids=["comment", "signed", "indented"],
    )
    def test_edge_list_read_from_first_line(self, tmp_path, capsys, text):
        path = tmp_path / "p3.txt"
        path.write_text(text)
        assert main(["analyze", "--file", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["graph"]["graph6"] == to_graph6(path_graph(3))

    def test_format_option_removed(self, tmp_path, capsys):
        path = tmp_path / "p3.el"
        path.write_text("3\n0 1\n1 2\n")
        assert main(["analyze", "--file", str(path), "--format", "edgelist"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --format" in captured.err

    @pytest.mark.parametrize("text", ["EhEG\nBg\n", "EhEG\n\n  Bg\n"], ids=["next", "gap"])
    def test_graph6_file_with_two_graphs(self, tmp_path, capsys, text):
        path = tmp_path / "two.g6"
        path.write_text(text)
        assert main(["analyze", "--file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "parse error: a graph6 file holds one graph, this one has more lines\n"
        )

    def test_empty_graph6_file(self, tmp_path, capsys):
        path = tmp_path / "empty.g6"
        path.write_text("\n")
        assert main(["analyze", "--file", str(path)]) == 2
        assert "empty graph6 payload" in capsys.readouterr().err

    def test_isolated_edge_pair(self, capsys):
        # B_ is K2 + K1 and A_ is K2: the pair is an isolated edge, outside
        # the characterization, which is a usage error and not a
        # counterexample, whatever the number of vertices
        for g6 in ("B_", "A_"):
            assert main(["analyze", "--g6", g6, "--pairs", "0,1"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            [line] = captured.err.splitlines()
            assert "two-vertex schedule" in line

    def test_two_vertex_empty_pair(self, capsys):
        # O2's pair goes through the characterization like any other
        assert main(["analyze", "--g6", "O2", "--pairs", "0,1", "--json"]) == 0
        [decision] = json.loads(capsys.readouterr().out)["decisions"]
        assert decision["pair"] == [0, 1]
        assert decision["status"] == "NOT_STRONGLY_COSPECTRAL"
        assert main(["analyze", "--g6", "O2", "--pairs", "0,1"]) == 0
        assert "  (0,1) NOT_STRONGLY_COSPECTRAL" in capsys.readouterr().out.splitlines()

    def test_malformed_pair(self, capsys):
        for spec in ("0", "0,1,2", "0,x"):
            assert main(["analyze", "--g6", "P3", "--pairs", spec]) == 2
            assert "a,b" in capsys.readouterr().err

    def test_usage_error(self):
        assert main(["analyze"]) == 2

    def test_json_round_trip(self):
        report = build_analysis_report(cycle_graph(6))
        assert json.loads(json.dumps(report)) == report

    def test_two_vertex_note(self, capsys):
        assert main(["analyze", "--g6", "A_", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "note" in report and "pi/2" in report["note"]
        # an explicit isolated-edge pair is refused, with no report
        assert main(["analyze", "--g6", "A_", "--json", "--pairs", "0,1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "two-vertex schedule" in captured.err

    def test_text_two_vertex_note(self, capsys):
        assert main(["analyze", "--g6", "A_"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("note: two-vertex graph")
        assert lines[2] == "pairs: none"

    def test_isolated_edge_note_beside_other_vertices(self, capsys):
        # K2 + K1: the isolated edge follows the two-vertex schedule, so the
        # report names it although the graph has three vertices
        assert main(["analyze", "--g6", "B_"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("note: two-vertex graph") and lines[1].endswith(": (0,1)")
        assert lines[2] == "pairs: none"
        # P3 + K2: the note names the edge and the P3 ends still revive
        report = build_analysis_report(disjoint_union(path_graph(3), path_graph(2)))
        assert report["note"].endswith(": (3,4)")
        assert [(d["pair"], d["status"]) for d in report["decisions"]] == [([0, 2], "PROPER")]

    def test_no_note_without_isolated_edge(self):
        for g in (path_graph(3), cycle_graph(6), empty_graph(2)):
            assert "note" not in build_analysis_report(g)

    def test_failing_residual_unverifies_report(self, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "decision_residual", lambda *args: 1.0)
        assert main(["analyze", "--g6", "C6", "--json"]) == 0
        proper = [
            d for d in json.loads(capsys.readouterr().out)["decisions"]
            if d["status"] == "PROPER"
        ]
        assert len(proper) == 3
        assert all(d["oracle_residual"] == 1.0 for d in proper)
        assert all(d["oracle_verified"] is False for d in proper)

    def test_text_periodic_only(self, capsys):
        ladder = cartesian_product(path_graph(2), path_graph(3))
        assert main(["analyze", "--g6", to_graph6(ladder)]) == 0
        assert "  (0,5) PERIODIC_ONLY  g=1" in capsys.readouterr().out.splitlines()

    def test_text_isolated_vertex(self, capsys):
        g = disjoint_union(path_graph(3), empty_graph(1))
        assert main(["analyze", "--g6", to_graph6(g)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "  vertex 3: periodic at all times (isolated)"

    def test_two_vertex_bad_pairs(self, capsys):
        for spec in ("0,7", "0,0"):
            assert main(["analyze", "--g6", "A_", "--pairs", spec]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "distinct vertices" in captured.err

    def test_pair_on_empty_graph(self, capsys):
        # "?" is the graph on no vertices: no pair names two of its vertices
        assert main(["analyze", "--g6", "?", "--pairs", "0,1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: need distinct vertices in a graph with no vertices, got [0, 1]\n"
        )


class TestSizeLimit:
    """analyze and periodic refuse more than 500 vertices with exit 2; a
    family shorthand or a graph6 string is refused before its graph is built."""

    @pytest.mark.parametrize(
        "argv",
        [["analyze", "--g6", "K501"], ["periodic", "--g6", "K501", "--vertex", "0"]],
    )
    def test_shorthand_refused_unbuilt(self, monkeypatch, capsys, argv):
        def unbuildable(name, n):
            raise AssertionError(f"{name} graph on {n} vertices was built")

        monkeypatch.setattr(cli, "standard_graph", unbuildable)
        assert main(argv) == 2
        assert "graph too large (n=501 > 500)" in capsys.readouterr().err

    def test_parsed_inputs_checked_after_parsing(self, capsys, tmp_path):
        big = to_graph6(empty_graph(501))
        assert main(["periodic", "--g6", big, "--vertex", "0"]) == 2
        assert "graph too large" in capsys.readouterr().err
        big_el = tmp_path / "o501.el"
        big_el.write_text("501\n")
        assert main(["analyze", "--file", str(big_el)]) == 2
        assert "graph too large (n=501 > 500)" in capsys.readouterr().err
        el = tmp_path / "p3.el"
        el.write_text("3\n0 1\n1 2\n")
        assert main(["analyze", "--file", str(el)]) == 0
        capsys.readouterr()
        for option in (["--max-n", "3"], ["--tol", "1e-9"]):
            assert main(["analyze", "--file", str(el), *option]) == 2


    @pytest.mark.parametrize("source", ["g6", "file", "construct"])
    def test_graph6_sized_from_header(self, monkeypatch, capsys, tmp_path, source):
        def undecodable(text):
            raise AssertionError("a graph6 body was decoded")

        monkeypatch.setattr(cli, "parse_graph6", undecodable)
        big = to_graph6(empty_graph(501))
        path = tmp_path / "o501.g6"
        path.write_text(big + "\n")
        argv, n = {
            "g6": (["periodic", "--g6", big, "--vertex", "0"], 501),
            "file": (["analyze", "--file", str(path)], 501),
            "construct": (["construct", "union", big, "K1"], 502),
        }[source]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"graph too large (n={n} > 500)" in captured.err

    def test_file_line_never_shorthand(self, capsys, tmp_path):
        for token in ("K4", "K501"):
            path = tmp_path / "token.g6"
            path.write_text(token + "\n")
            assert main(["analyze", "--file", str(path)]) == 2
            assert capsys.readouterr().err.startswith("parse error")


class TestPeriodic:
    def test_c4(self, capsys):
        assert main(["periodic", "--g6", to_graph6(cycle_graph(4)), "--vertex", "0"]) == 0
        out = capsys.readouterr().out
        assert "periodic" in out and "G=2" in out and "period=1/1 pi" in out

    def test_c5(self, capsys):
        assert main(["periodic", "--g6", to_graph6(cycle_graph(5)), "--vertex", "0"]) == 0
        assert "not periodic" in capsys.readouterr().out

    def test_family_shorthand(self, capsys):
        assert main(["periodic", "--g6", "C4", "--vertex", "0"]) == 0
        assert "G=2" in capsys.readouterr().out

    def test_vertex_range(self, capsys):
        assert main(["periodic", "--g6", "A_", "--vertex", "9"]) == 2


class TestConstruct:
    def test_standard(self, capsys):
        assert main(["construct", "path", "3"]) == 0
        assert parse_graph6(capsys.readouterr().out.strip()) == path_graph(3)

    def test_double_cone_over_c4(self, capsys):
        assert main(["construct", "double-cone", "C4"]) == 0
        got = parse_graph6(capsys.readouterr().out.strip())
        assert got == double_cone(cycle_graph(4))

    def test_cartesian(self, capsys):
        assert main(["construct", "cartesian", "K3", "P3"]) == 0
        got = parse_graph6(capsys.readouterr().out.strip())
        assert got.n == 9 and got.num_edges == 9 + 6

    def test_hadamard(self, capsys):
        assert main(["construct", "hadamard", "2"]) == 0
        got = parse_graph6(capsys.readouterr().out.strip())
        assert got.n == 16 and set(got.degrees()) == {4}

    @pytest.mark.parametrize("k", ["-1", "13"])
    def test_hadamard_exponent_out_of_range(self, capsys, k):
        assert main(["construct", "hadamard", k]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "bad constructor parameters: order exponent must be between 0 and 12\n"
        )

    def test_threshold(self, capsys):
        assert main(["construct", "threshold", "2,4"]) == 0
        got = parse_graph6(capsys.readouterr().out.strip())
        assert got == double_cone(complete_graph(4))

    def test_complement(self, capsys):
        assert main(["construct", "complement", "C4"]) == 0
        got = parse_graph6(capsys.readouterr().out.strip())
        assert got == complement(cycle_graph(4)) and got.edges == {(0, 2), (1, 3)}

    def test_unknown_constructor(self, capsys):
        assert main(["construct", "bogus"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_bad_params(self, capsys):
        assert main(["construct", "path"]) == 2

    @pytest.mark.parametrize(
        "argv, arity, got",
        [
            (["path", "5", "7"], 1, 2),
            (["path"], 1, 0),
            (["threshold", "2,4", "1,1"], 1, 2),
            (["complement"], 1, 0),
            (["cartesian", "K2", "K2", "K2"], 2, 3),
            (["join", "K2"], 2, 1),
            (["union"], 2, 0),
            (["double-cone", "K3", "K2"], 1, 2),
            (["double-cone"], 1, 0),
            (["hadamard"], 1, 0),
        ],
    )
    def test_wrong_parameter_count(self, capsys, argv, arity, got):
        assert main(["construct", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"bad constructor parameters: parameter count for {argv[0]} is {arity}, got {got}\n"
        )


    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "complete", "501"],
            ["construct", "double-cone", "K499"],
            ["construct", "cartesian", "K23", "K23"],
            ["construct", "hadamard", "7"],
            ["construct", "threshold", "300,201"],
            ["construct", "union", to_graph6(empty_graph(300)), "K201"],
        ],
    )
    def test_too_large_refused_unbuilt(self, monkeypatch, capsys, argv):
        def unbuildable(*args):
            raise AssertionError("a constructor was called")

        for name in (
            "standard_graph", "sylvester_hadamard", "threshold_graph",
            "cartesian_product", "join", "disjoint_union", "double_cone",
        ):
            monkeypatch.setattr(cli, name, unbuildable)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "graph too large" in captured.err

    def test_largest_accepted(self, capsys):
        assert main(["construct", "cartesian", "K20", "K25"]) == 0
        assert parse_graph6(capsys.readouterr().out.strip()).n == 500


class TestCampaignCommand:
    def test_trees_small(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["campaign", "trees", "--max-n", "6", "--json", str(out)])
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["campaign"] == "trees" and report["passed"]

    def test_prime5(self, capsys):
        assert main(["campaign", "prime5"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_prime5_counterexamples_exit_one(self, monkeypatch, capsys):
        monkeypatch.setattr(campaigns, "is_double_cone", lambda g: None)
        assert main(["campaign", "prime5"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "counterexamples=4" in out
        assert out.count("  counterexample: ") == 4

    def test_workers_below_one(self, capsys):
        for workers in ("0", "-2"):
            assert main(["campaign", "prime5", "--workers", workers]) == 2
            assert "workers must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["prime5", "prime7", "constructions"])
    def test_max_n_only_for_trees(self, name, monkeypatch, capsys):
        # refused before any corpus is built, instead of silently ignored
        monkeypatch.setattr(campaigns, "campaign_prime_order", pytest.fail)
        monkeypatch.setattr(campaigns, "campaign_constructions", pytest.fail)
        assert main(["campaign", name, "--max-n", "3"]) == 2
        assert f"sizes the trees campaign only, not {name}" in capsys.readouterr().err

    def test_trees_default_size(self, monkeypatch, capsys):
        # no --max-n leaves campaign_trees its own default
        sizes, real = [], campaigns.campaign_trees

        def small(*n_max):
            sizes.append(n_max)
            return real(4)

        monkeypatch.setattr(campaigns, "campaign_trees", small)
        assert main(["campaign", "trees"]) == 0
        assert main(["campaign", "trees", "--max-n", "5"]) == 0
        assert sizes == [(), (5,)]
        assert capsys.readouterr().out.count("PASS") == 2


class TestClosedStdout:
    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_reader_gone_before_the_report(self, extra):
        # the reader closes its end before anything is written (as head -1
        # does once it has its line): no error line, and not exit 2
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        code = "import sys; from lafr.cli import main; sys.exit(main())"
        try:
            proc = subprocess.run(
                [sys.executable, "-c", code, "analyze", "--g6", "C24", *extra],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""


def test_commands_load_numpy_only_to_compute():
    # construct, --help and every refusal finish without numpy; analyze loads
    # it through reporting but never the campaign modules
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    code = (
        "import sys; from lafr.cli import main; code = main(sys.argv[1:]); "
        "print([m for m in ('numpy', 'lafr.campaigns', 'lafr.trees') if m in sys.modules], "
        "file=sys.stderr); sys.exit(code)"
    )
    cases = [
        (["construct", "threshold", "2,4"], 0, []),
        (["--help"], 0, []),
        (["analyze", "--g6", "K501"], 2, []),
        (["analyze", "--g6", "B?@"], 2, []),
        (["campaign", "prime5", "--max-n", "3"], 2, []),
        (["analyze", "--g6", "C6"], 0, ["numpy"]),
    ]
    for argv, exit_code, loaded in cases:
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == exit_code, (argv, proc.stderr)
        assert proc.stderr.splitlines()[-1] == repr(loaded), argv


class TestPublicSurface:
    def test_every_export_resolves(self):
        assert all(hasattr(lafr, name) for name in lafr.__all__)

    def test_no_duplicate_exports(self):
        assert len(set(lafr.__all__)) == len(lafr.__all__)

    def test_star_import(self):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        code = "from lafr import *; import lafr; assert set(lafr.__all__) <= set(globals())"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def test_readme_cli_examples_parse():
    # the README's CLI block must name only options and choices the parser still has
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [line for line in block.splitlines() if line.startswith("lafr ")]
    assert len(examples) >= 12
    for line in examples:
        try:
            cli.build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


def test_option_inventory():
    # every option of every subcommand, so that a new one is added here in plain view
    expected = {
        "analyze": {"--g6", "--file", "--pairs", "--json"},
        "periodic": {"--g6", "--vertex"},
        "construct": set(),
        # --workers stays only because perfbench/run.py passes it
        "campaign": {"--workers", "--json", "--max-n"},
    }
    [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert found == expected
