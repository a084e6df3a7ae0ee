"""Command-line interface: parsing, reports, exit codes."""

import json

from lafr.cli import graph_from_token, main
from lafr.graphs import (
    complete_graph,
    cycle_graph,
    double_cone,
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

    def test_file_input(self, tmp_path, capsys):
        path = tmp_path / "graph.el"
        path.write_text("3\n0 1\n1 2\n")
        code = main(
            ["analyze", "--file", str(path), "--format", "edgelist", "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["graph"]["graph6"] == to_graph6(path_graph(3))

    def test_empty_graph6_file(self, tmp_path, capsys):
        path = tmp_path / "empty.g6"
        path.write_text("\n")
        assert main(["analyze", "--file", str(path)]) == 2
        assert "empty graph6 payload" in capsys.readouterr().err

    def test_usage_error(self):
        assert main(["analyze"]) == 2

    def test_json_round_trip(self):
        report = build_analysis_report(cycle_graph(6))
        assert json.loads(json.dumps(report)) == report

    def test_two_vertex_note(self, capsys):
        assert main(["analyze", "--g6", "A_", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "note" in report and "pi/2" in report["note"]


class TestPeriodic:
    def test_c4(self, capsys):
        assert main(["periodic", "--g6", to_graph6(cycle_graph(4)), "--vertex", "0"]) == 0
        out = capsys.readouterr().out
        assert "periodic" in out and "G=2" in out and "1/1 pi" in out

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
        assert main(["construct", "double-cone", "--over", "C4"]) == 0
        got = parse_graph6(capsys.readouterr().out.strip())
        assert got == double_cone(cycle_graph(4))

    def test_cartesian(self, capsys):
        assert main(["construct", "cartesian", "K3", "P3"]) == 0
        got = parse_graph6(capsys.readouterr().out.strip())
        assert got.n == 9 and got.num_edges == 9 + 6

    def test_hadamard(self, capsys):
        assert main(["construct", "hadamard", "--sylvester", "2"]) == 0
        got = parse_graph6(capsys.readouterr().out.strip())
        assert got.n == 16 and set(got.degrees()) == {4}

    def test_threshold(self, capsys):
        assert main(["construct", "threshold", "2,4"]) == 0
        got = parse_graph6(capsys.readouterr().out.strip())
        assert got == double_cone(complete_graph(4))

    def test_bad_params(self, capsys):
        assert main(["construct", "path"]) == 2


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
