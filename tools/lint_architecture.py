"""Architecture guard: one member loop, one answer cache, one answer cap,
one row builder, one request deadline, and no module nothing reaches.

``repro.matching.planner.match_members`` is the only routine that matches
a pattern against the members of a collection and the only place that
picks a member's access method (docs/architecture.md, "Life of a query").
This script walks the stdlib ast of the source tree and fails when the
fork it replaced starts to grow back, or when library surface outlives
its last caller:

  A001  a module outside ``repro/matching/`` calls ``find_matches``
        (Algorithm 4.1 is reached through ``GraphMatcher.match`` only,
        so every run has a plan, a report and a governed search)
  A002  the name ``matcher_factory`` reappears anywhere (the per-caller
        access-method hook ``match_members`` made unnecessary)
  A003  a module under ``src/repro/`` is imported by nothing that
        counts: a non-``__init__`` module under ``src/repro/``,
        ``bench/``, ``benchmarks/`` or ``examples/``, or a module CI runs
        with ``python -m`` (:data:`ENTRY_MODULES`).  Tests do not count,
        and a package re-export counts only when the importing module
        uses the re-exported name.  :data:`KEPT_UNREACHED` names the
        exceptions, each with its reason.  A name in either list whose
        module file is gone is an A003 finding too, so neither list
        keeps stale entries.
  A004  a module outside ``repro/service/cache.py`` calls ``LRUCache(...)``
        or defines a class based on it (a served answer is replayed only
        by the version-keyed ``ResultCache``, query text only by
        ``PreparedQueryCache``; a third cache of answers would have no
        data version in its key)
  A005  the name ``max_results`` reappears anywhere (a query's answer
        cap is its ``limit``, counted by ``match_members`` across
        members; ``default_max_results``, the service's ceiling on that
        limit, is another identifier and allowed)
  A006  a dict display with the keys ``"graph"``, ``"nodes"`` and
        ``"edges"`` outside ``repro/service/protocol.py`` (answers
        travel as blocks of flat id rows; ``AnswerRows`` there is the
        one place a row dict is built, when a caller reads a row)
  A007  the name ``WATCHDOG_MULTIPLE`` or ``_DEADLINE_GRACE`` reappears
        anywhere (a served request's one deadline is the
        ``ExecutionContext`` built when it is handed to the pool, which
        every run checks; a cluster replica attempt's is the client's
        budget, connect included; a second wall over a thread pool
        cannot stop a thread)

Run: ``python tools/lint_architecture.py [root]`` (defaults to
``src/repro``; A003 reads the importer trees beside ``src/``); exits
non-zero on findings.  Tier-1 runs it through
``tests/analysis/test_lint_architecture.py``.
"""
import ast
import sys
from pathlib import Path

#: modules CI runs with ``python -m``: entry points, never orphans
ENTRY_MODULES = ("repro.__main__", "repro.storage.crashfuzz")
#: trees outside the package whose imports count (``tests/`` does not)
IMPORTER_DIRS = ("bench", "benchmarks", "examples")
#: unreached modules kept on purpose, each with its reason; the self-test
#: fails once an entry is reached, and A003 once its module is gone
KEPT_UNREACHED = {
    "repro.datalog.translate":
        "the paper's §3.5 Datalog translation: a differential oracle for "
        "the matcher (ROADMAP), reached from tests only",
}


#: A007's finding: a second deadline over one that already ends the work
_SECOND_DEADLINE = ("A007", "a second deadline is back (the request's "
                            "ExecutionContext / the attempt's client budget "
                            "is its one deadline)")
#: identifiers of retired mechanisms: ``{name: (code, message)}``
RETIRED_NAMES = {
    "matcher_factory": ("A002", "matcher_factory is back (match_members "
                                "picks each member's access method)"),
    "max_results": ("A005", "max_results is back (a query's answer cap is "
                            "its limit, which match_members enforces)"),
    "WATCHDOG_MULTIPLE": _SECOND_DEADLINE,
    "_DEADLINE_GRACE": _SECOND_DEADLINE,
}


def _identifier(node):
    """The identifier a name, attribute, argument or keyword node spells."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, (ast.arg, ast.keyword)):
        return node.arg
    return None


#: the keys of an answer row dict (A006)
ROW_KEYS = frozenset(("graph", "nodes", "edges"))


def _is_row_dict(node):
    """Whether *node* is a dict display with every :data:`ROW_KEYS` key."""
    return isinstance(node, ast.Dict) and ROW_KEYS <= {
        key.value for key in node.keys if isinstance(key, ast.Constant)}


def check_source(src, filename="<source>", in_matching=False,
                 in_cache=False, in_protocol=False):
    """All findings for one source text: ``[(lineno, code, message)]``."""
    found = set()
    for node in ast.walk(ast.parse(src, filename=filename)):
        if not in_protocol and _is_row_dict(node):
            found.add((node.lineno, "A006",
                       "answer row dict built outside "
                       "repro/service/protocol.py (carry blocks; read rows "
                       "through AnswerRows)"))
        if not in_cache and (
                (isinstance(node, ast.Call)
                 and _identifier(node.func) == "LRUCache")
                or (isinstance(node, ast.ClassDef)
                    and any(_identifier(base) == "LRUCache"
                            for base in node.bases))):
            found.add((node.lineno, "A004",
                       "LRUCache used outside repro/service/cache.py "
                       "(replay answers through ResultCache, query text "
                       "through PreparedQueryCache)"))
        if (not in_matching and isinstance(node, ast.Call)
                and _identifier(node.func) == "find_matches"):
            found.add((node.lineno, "A001",
                       "find_matches called outside repro/matching/ "
                       "(go through match_members or GraphMatcher.match)"))
        retired = RETIRED_NAMES.get(_identifier(node))
        if retired is not None:
            found.add((node.lineno, *retired))
    return sorted(found)


def check_file(path, root):
    relative = path.relative_to(root).parts
    return check_source(path.read_text(), str(path),
                        in_matching=relative[0] == "matching",
                        in_cache=relative == ("service", "cache.py"),
                        in_protocol=relative == ("service", "protocol.py"))


class _ModuleTree:
    """Every module of one package: dotted names, packages, re-exports."""

    def __init__(self, root):
        self.paths = {}
        self.packages = set()
        for path in sorted(root.rglob("*.py")):
            parts = path.relative_to(root.parent).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
                self.packages.add(".".join(parts))
            self.paths[".".join(parts)] = path
        #: package -> {exported name: (source module, name there)}
        self.exports = {}
        for package in self.packages:
            tree = ast.parse(self.paths[package].read_text())
            self.exports[package] = {
                alias.asname or alias.name: (
                    _absolute(node, package, is_package=True), alias.name)
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names}

    def resolve(self, package, name, seen=frozenset()):
        """The module defining ``package.name`` (following re-exports)."""
        if f"{package}.{name}" in self.paths:
            return f"{package}.{name}"
        source = self.exports.get(package, {}).get(name)
        if source is None or (package, name) in seen:
            return package
        module, original = source
        if module in self.packages or f"{module}.{original}" in self.paths:
            return self.resolve(module, original, seen | {(package, name)})
        return module

    def reached_from(self, src, module):
        """The modules one (non-``__init__``) importer reaches: direct
        module imports, plus package re-exports whose name it uses."""
        tree = ast.parse(src)
        reached, bound, from_package = set(), {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    reached.add(alias.name)
                    local = alias.asname or alias.name.split(".")[0]
                    bound[local] = alias.name if alias.asname else local
            elif isinstance(node, ast.ImportFrom):
                base = _absolute(node, module, is_package=False)
                for alias in node.names:
                    local = alias.asname or alias.name
                    if f"{base}.{alias.name}" in self.paths:
                        reached.add(f"{base}.{alias.name}")
                        bound[local] = f"{base}.{alias.name}"
                    elif base in self.packages:
                        from_package[local] = (base, alias.name)
                    else:
                        reached.add(base)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        reached.update(self.resolve(*source)
                       for local, source in from_package.items()
                       if local in used)
        for node in ast.walk(tree):
            chain = _attribute_chain(node)
            if not chain or chain[0] not in bound:
                continue
            current = bound[chain[0]]
            for attr in chain[1:]:
                if current not in self.packages:
                    break
                current = self.resolve(current, attr)
                reached.add(current)
        return reached


def _absolute(node, module, is_package):
    """The absolute module an ``ImportFrom`` names, seen from *module*."""
    if not node.level:
        return node.module
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    parts = parts[:len(parts) - (node.level - 1)]
    return ".".join(parts + ([node.module] if node.module else []))


def _attribute_chain(node):
    """``a.b.c`` as ``["a", "b", "c"]`` (None for anything else)."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if not attrs or not isinstance(node, ast.Name):
        return None
    return [node.id] + attrs[::-1]


def unreached_modules(root, repo=None, entry_modules=ENTRY_MODULES):
    """``{module: path}`` of the modules under *root* nothing counting
    imports (entry modules excepted, :data:`KEPT_UNREACHED` included).

    Importers are the package's own non-``__init__`` modules plus every
    module under :data:`IMPORTER_DIRS` of *repo* (default: the directory
    holding ``src/``).
    """
    root = Path(root).resolve()
    repo = Path(repo) if repo is not None else root.parents[1]
    modules = _ModuleTree(root)
    reached = set()
    for name, path in modules.paths.items():
        if name not in modules.packages:
            reached |= modules.reached_from(path.read_text(), name) - {name}
    for directory in IMPORTER_DIRS:
        for path in sorted((repo / directory).rglob("*.py")):
            reached |= modules.reached_from(path.read_text(), path.stem)
    return {name: path for name, path in sorted(modules.paths.items())
            if name not in modules.packages and name not in reached
            and name not in entry_modules}


def check_tree(root, repo=None, entry_modules=ENTRY_MODULES,
               kept=KEPT_UNREACHED):
    """A003 findings for the package at *root*: ``[(path, code, message)]``."""
    root = Path(root).resolve()
    findings = []
    for name in sorted({*entry_modules, *kept}):
        path = root.parent.joinpath(*name.split(".")).with_suffix(".py")
        if not path.exists():
            findings.append((path, "A003",
                             f"{name} is listed in ENTRY_MODULES or "
                             f"KEPT_UNREACHED but has no module file "
                             f"(drop the entry)"))
    for name, path in unreached_modules(root, repo, entry_modules).items():
        if name not in kept:
            findings.append((path, "A003",
                             f"{name} is imported by no module under src/, "
                             f"bench/, benchmarks/ or examples/ (delete it, "
                             f"or move it beside its only users)"))
    return findings


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "src/repro")
    total = 0
    for path in sorted(root.rglob("*.py")):
        for lineno, code, msg in check_file(path, root):
            print(f"{path}:{lineno}: {code} {msg}")
            total += 1
    for path, code, msg in check_tree(root):
        print(f"{path}:1: {code} {msg}")
        total += 1
    print(f"-- {total} finding(s)")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
