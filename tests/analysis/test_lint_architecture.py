"""The one-member-loop architecture guard (tools/lint_architecture.py)."""

import importlib.util
import textwrap
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "lint_architecture.py"
_spec = importlib.util.spec_from_file_location("lint_architecture", _TOOL)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def codes(src, in_matching=False):
    return [code for _, code, _ in lint.check_source(
        textwrap.dedent(src), in_matching=in_matching)]


class TestDetection:
    def test_find_matches_call_outside_matching_is_a001(self):
        src = """
            from ..matching.basic import find_matches
            def select(collection, ground):
                return [find_matches(ground, graph) for graph in collection]
        """
        assert codes(src) == ["A001"]
        assert codes(src, in_matching=True) == []

    def test_attribute_call_counts(self):
        assert codes("""
            from .. import matching
            def f(p, g):
                return matching.find_matches(p, g)
        """) == ["A001"]

    def test_importing_or_re_exporting_is_not_calling(self):
        assert codes("""
            from .basic import find_matches
            __all__ = ["find_matches"]
        """) == []

    def test_matcher_factory_is_a002_wherever_it_appears(self):
        for src in ("def select(c, p, matcher_factory=None): pass",
                    "select(c, p, matcher_factory=GraphMatcher)",
                    "matcher_factory = database.matcher_for",
                    "options.matcher_factory(graph)"):
            assert codes(src) == ["A002"], src
            assert codes(src, in_matching=True) == ["A002"], src


class TestRealTree:
    def test_src_repro_is_clean(self):
        root = _TOOL.parents[1] / "src" / "repro"
        for path in sorted(root.rglob("*.py")):
            assert lint.check_file(path, root) == [], f"findings in {path}"

    def test_the_guard_knows_where_matching_lives(self):
        root = _TOOL.parents[1] / "src" / "repro"
        planner = root / "matching" / "planner.py"
        assert "find_matches(" in planner.read_text()
        assert lint.check_file(planner, root) == []
