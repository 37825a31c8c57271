"""The one-member-loop, one-answer-cache, one-answer-cap, one-row-builder
and one-deadline architecture guard (tools/lint_architecture.py)."""

import importlib.util
import textwrap
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "lint_architecture.py"
_spec = importlib.util.spec_from_file_location("lint_architecture", _TOOL)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def codes(src, in_matching=False, in_cache=False, in_protocol=False):
    return [code for _, code, _ in lint.check_source(
        textwrap.dedent(src), in_matching=in_matching, in_cache=in_cache,
        in_protocol=in_protocol)]


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

    def test_max_results_is_a005_wherever_it_appears(self):
        for src in ("def derive(timeout=None, max_results=None): pass",
                    "ExecutionContext(timeout=1.0, max_results=10)",
                    "cap = context.max_results",
                    "max_results = 1000"):
            assert codes(src) == ["A005"], src
            assert codes(src, in_matching=True) == ["A005"], src

    def test_watchdog_multiple_is_a007_wherever_it_appears(self):
        for src in ("WATCHDOG_MULTIPLE = 4.0",
                    "budget = service_module.WATCHDOG_MULTIPLE * timeout",
                    "def start(WATCHDOG_MULTIPLE=4.0): pass",
                    "ServiceConfig(WATCHDOG_MULTIPLE=2.0)"):
            assert codes(src) == ["A007"], src
            assert codes(src, in_matching=True) == ["A007"], src

    def test_deadline_grace_is_a007_wherever_it_appears(self):
        for src in ("_DEADLINE_GRACE = 0.25",
                    "wait(legs, timeout=remaining + _DEADLINE_GRACE)",
                    "grace = coordinator._DEADLINE_GRACE",
                    "def fan_out(_DEADLINE_GRACE=0.25): pass"):
            assert codes(src) == ["A007"], src
        message = lint.check_source("_DEADLINE_GRACE = 0.25")[0][2]
        assert message == lint.check_source("WATCHDOG_MULTIPLE = 4.0")[0][2]
        assert "the attempt's client budget" in message

    def test_default_max_results_is_not_a005(self):
        assert codes("""
            ServiceConfig(default_max_results=10)
            cap = config.default_max_results
            def build(default_max_results=1000): pass
        """) == []

    def test_planted_lru_subclass_is_a004(self):
        src = """
            from .cache import LRUCache
            class ReplayTable(LRUCache):
                pass
        """
        assert codes(src) == ["A004"]
        assert codes(src, in_cache=True) == []

    def test_planted_bare_lru_instance_is_a004(self):
        src = """
            from ..service import cache
            answers = cache.LRUCache(128)
        """
        assert codes(src) == ["A004"]
        assert codes(src, in_cache=True) == []

    def test_planted_row_dict_is_a006(self):
        src = """
            def answer_rows(name, node_names, edge_names, rows):
                return [{"graph": name,
                         "nodes": dict(zip(node_names, nodes)),
                         "edges": dict(zip(edge_names, edges))}
                        for nodes, edges in rows]
        """
        assert codes(src) == ["A006"]
        assert codes(src, in_matching=True) == ["A006"]
        assert codes(src, in_protocol=True) == []

    def test_a006_needs_all_three_row_keys(self):
        assert codes("""
            entry = {"graph": name, "nodes": 3}
            explained = {"graph": name, "edges": [], "actual": None}
            block = {"nodes": names, "edges": names, "rows": rows}
        """) == []

    def test_re_exporting_lru_is_not_a004(self):
        assert codes("""
            from .cache import LRUCache, ResultCache
            __all__ = ["LRUCache", "ResultCache"]
        """) == []


def plant(repo, files):
    """Write ``{relative path: source}`` under *repo*; returns the package
    root ``repo/src/repro``."""
    for relative, src in files.items():
        path = repo / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(src))
    return repo / "src" / "repro"


def unreached(repo, files):
    return sorted(lint.unreached_modules(plant(repo, files), repo,
                                         entry_modules=("repro.main",)))


class TestUnreachedModules:
    BASE = {
        "src/repro/__init__.py": "",
        "src/repro/main.py": "from .used import f\nf()\n",
        "src/repro/used.py": "def f(): pass\n",
    }

    def test_planted_orphan_is_a003(self, tmp_path):
        root = plant(tmp_path, {**self.BASE,
                                "src/repro/orphan.py": "X = 1\n"})
        findings = lint.check_tree(root, tmp_path,
                                   entry_modules=("repro.main",), kept={})
        assert [(path.name, code) for path, code, _ in findings] == [
            ("orphan.py", "A003")]

    def test_tests_and_inits_do_not_count_but_examples_do(self, tmp_path):
        files = {**self.BASE,
                 "src/repro/orphan.py": "X = 1\n",
                 "src/repro/demo_only.py": "Y = 1\n",
                 "src/repro/sub/__init__.py": "from ..orphan import X\n",
                 "tests/test_orphan.py": "from repro.orphan import X\n",
                 "examples/demo.py": "import repro.demo_only\n"}
        assert unreached(tmp_path, files) == ["repro.orphan"]

    def test_re_export_counts_only_when_the_name_is_used(self, tmp_path):
        files = {**self.BASE,
                 "src/repro/pkg/__init__.py": "from .impl import thing\n",
                 "src/repro/pkg/impl.py": "def thing(): pass\n",
                 "src/repro/__init__.py": "from .pkg import thing\n",
                 "bench/run.py": "from repro.pkg import thing\n"}
        assert unreached(tmp_path, files) == ["repro.pkg.impl"]
        for importer in ("from repro.pkg import thing\nthing()\n",
                         "from repro import thing as t\nt()\n",
                         "import repro.pkg\nrepro.pkg.thing()\n",
                         "from repro import pkg\npkg.thing()\n"):
            files["bench/run.py"] = importer
            assert unreached(tmp_path, files) == [], importer

    def test_entry_modules_are_never_orphans(self, tmp_path):
        files = {**self.BASE, "src/repro/main.py": "X = 1\n"}
        assert unreached(tmp_path, files) == ["repro.used"]

    def test_listed_module_without_a_file_is_a003(self, tmp_path):
        root = plant(tmp_path, self.BASE)
        findings = lint.check_tree(
            root, tmp_path, entry_modules=("repro.main", "repro.gone"),
            kept={"repro.sub.deleted": "reason"})
        assert [(path.name, code) for path, code, _ in findings] == [
            ("gone.py", "A003"), ("deleted.py", "A003")]


class TestRealTree:
    def test_src_repro_is_clean(self):
        root = _TOOL.parents[1] / "src" / "repro"
        for path in sorted(root.rglob("*.py")):
            assert lint.check_file(path, root) == [], f"findings in {path}"
        assert lint.check_tree(root) == []

    def test_kept_unreached_modules_are_exactly_the_unreached_ones(self):
        """A waiver whose module gained a caller (or was deleted) must
        leave :data:`KEPT_UNREACHED` with it."""
        root = _TOOL.parents[1] / "src" / "repro"
        assert set(lint.unreached_modules(root)) == set(lint.KEPT_UNREACHED)

    def test_the_guard_knows_where_the_caches_live(self):
        # the clean tree above includes this file's two subclasses
        root = _TOOL.parents[1] / "src" / "repro"
        cache = root / "service" / "cache.py"
        assert "(LRUCache)" in cache.read_text()
        assert lint.check_file(cache, root) == []

    def test_the_guard_knows_where_matching_lives(self):
        root = _TOOL.parents[1] / "src" / "repro"
        planner = root / "matching" / "planner.py"
        assert "find_matches(" in planner.read_text()
        assert lint.check_file(planner, root) == []
