"""Smoke tests: every shipped example runs end to end.

The examples double as executable documentation; the two heavier ones
(PPI motif search, SQL comparison) also check inside ``main`` that
Baseline and Optimized, or SQL and the graph matcher, agree.
"""

import importlib.util
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, capsys) -> str:
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(name, None)
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart", capsys)
        assert "u1->A1" in out
        assert "8 -> 2 (profiles) -> 1 (refined)" in out

    def test_coauthorship(self, capsys):
        out = run_example("coauthorship", capsys)
        assert "authors in co-authorship graph: 4" in out
        assert "co-author edges: 4" in out

    def test_rdf_shipping(self, capsys):
        out = run_example("rdf_shipping", capsys)
        assert "Acme: dept 0 <-> dept 1" in out
        assert "Globex: dept 3 <-> dept 4" in out

    def test_recursive_patterns(self, capsys):
        out = run_example("recursive_patterns", capsys)
        assert "pattern is recursive: True" in out
        assert "path instances" in out

    def test_chemical_search(self, capsys):
        out = run_example("chemical_search", capsys)
        assert "compounds match" in out
        assert "filter kept" in out

    def test_social_network(self, capsys):
        out = run_example("social_network", capsys)
        assert "reciprocal follow pairs" in out
        assert "top celebrities" in out
        # rankings are ordered descending
        lines = [l for l in out.splitlines() if "followers" in l]
        counts = [int(l.split(":")[1].split()[0]) for l in lines]
        assert counts == sorted(counts, reverse=True)

    def test_ppi_motif_search(self, capsys):
        out = run_example("ppi_motif_search", capsys)
        assert "space reduction" in out
        assert "example complex instances (size-4 clique):" in out

    def test_sql_vs_graphql(self, capsys):
        out = run_example("sql_vs_graphql", capsys)
        assert "sql rows examined" in out
        assert "(aborted)" not in out
        assert "SELECT V1.vid" in out
