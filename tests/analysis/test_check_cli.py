"""The ``repro-gql check`` subcommand end to end."""

import json

import pytest

from repro.cli import main
from repro.core import Graph, GraphCollection
from repro.storage import save_collection


@pytest.fixture
def labeled_file(tmp_path):
    graph = Graph("G")
    graph.add_node("n1", label="A", weight=3)
    graph.add_node("n2", label="B", weight=4)
    graph.add_edge("n1", "n2")
    path = tmp_path / "data.gql"
    save_collection(GraphCollection([graph]), path)
    return str(path)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCheck:
    def test_clean_file_passes(self, tmp_path, capsys):
        query = write(tmp_path, "ok.gql",
                      "graph P { node v1; node v2; edge e1 (v1, v2); }")
        assert main(["check", query]) == 0
        out = capsys.readouterr().out
        assert "1 file(s) checked, 0 finding(s)" in out

    def test_errors_fail_with_positions(self, tmp_path, capsys):
        query = write(tmp_path, "bad.gql",
                      "graph P { node v1; } where Q.x > 1")
        assert main(["check", query]) == 1
        out = capsys.readouterr().out
        assert "error GQL001" in out
        assert "bad.gql:1:" in out
        assert "errors present" in out

    def test_undeclared_edge_end_point_is_gql001(self, tmp_path, capsys):
        query = write(tmp_path, "end.gql",
                      "graph P { node u1; node u2; edge e1 (u1, u2); "
                      "edge e2 (u2, u3); }")
        assert main(["check", query]) == 1
        out = capsys.readouterr().out
        assert "error GQL001" in out and "'u3'" in out

    def test_warnings_pass_without_strict(self, tmp_path, capsys):
        query = write(tmp_path, "warn.gql",
                      "graph P { node v1; node v2; }")
        assert main(["check", query]) == 0
        assert "warning GQL009" in capsys.readouterr().out

    def test_strict_promotes_warnings(self, tmp_path):
        query = write(tmp_path, "warn.gql",
                      "graph P { node v1; node v2; }")
        assert main(["check", "--strict", query]) == 1

    def test_syntax_error_is_gql000(self, tmp_path, capsys):
        query = write(tmp_path, "syn.gql", "graph P { node v1")
        assert main(["check", query]) == 1
        assert "GQL000" in capsys.readouterr().out

    def test_json_output_shape(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.gql",
                    "graph P { node v1; } where Q.x > 1")
        ok = write(tmp_path, "ok.gql", "graph P { node v1; }")
        assert main(["check", "--json", bad, ok]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert set(payload["files"]) == {bad, ok}
        (finding,) = [d for d in payload["files"][bad]
                      if d["code"] == "GQL001"]
        assert finding["severity"] == "error"
        assert finding["line"] == 1
        assert payload["files"][ok] == []

    def test_schema_from_enables_collection_checks(self, tmp_path,
                                                   labeled_file, capsys):
        query = write(tmp_path, "typo.gql",
                      "graph P { node v1 where v1.wieght > 2; }")
        assert main(["check", query]) == 0  # no schema, no finding
        capsys.readouterr()
        assert main(["check", "--schema-from", labeled_file, query]) == 0
        assert "GQL004" in capsys.readouterr().out

    def test_missing_file_is_a_usage_error(self, capsys):
        assert main(["check", "/nonexistent/q.gql"]) == 2
        assert "error" in capsys.readouterr().err


class TestExplainDiagnostics:
    def test_explain_renders_diagnostics(self, tmp_path, labeled_file,
                                         capsys):
        query = write(tmp_path, "q.gql",
                      'graph P { node v1 where v1.label = "Z"; }')
        assert main(["explain", labeled_file, "--pattern", query]) == 0
        out = capsys.readouterr().out
        assert "diagnostic: warning GQL005" in out
