"""Smoke tests: the shipped examples run end to end.

The two heavyweight examples (PPI motif search, SQL comparison) are
exercised by the benchmarks; here we run the light ones, which double as
executable documentation.
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
