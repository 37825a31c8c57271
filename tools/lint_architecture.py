"""Architecture guard: σ_P over a collection has one member loop.

``repro.matching.planner.match_members`` is the only routine that matches
a pattern against the members of a collection and the only place that
picks a member's access method (docs/architecture.md, "Life of a query").
This script walks the stdlib ast of the source tree and fails when the
fork it replaced starts to grow back:

  A001  a module outside ``repro/matching/`` calls ``find_matches``
        (Algorithm 4.1 is reached through ``GraphMatcher.match`` only,
        so every run has a plan, a report and a governed search)
  A002  the name ``matcher_factory`` reappears anywhere (the per-caller
        access-method hook ``match_members`` made unnecessary)

Run: ``python tools/lint_architecture.py [root]`` (defaults to
``src/repro``); exits non-zero on findings.  Tier-1 runs it through
``tests/analysis/test_lint_architecture.py``.
"""
import ast
import sys
from pathlib import Path


def _identifier(node):
    """The identifier a name, attribute, argument or keyword node spells."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, (ast.arg, ast.keyword)):
        return node.arg
    return None


def check_source(src, filename="<source>", in_matching=False):
    """All findings for one source text: ``[(lineno, code, message)]``."""
    found = set()
    for node in ast.walk(ast.parse(src, filename=filename)):
        if (not in_matching and isinstance(node, ast.Call)
                and _identifier(node.func) == "find_matches"):
            found.add((node.lineno, "A001",
                       "find_matches called outside repro/matching/ "
                       "(go through match_members or GraphMatcher.match)"))
        if _identifier(node) == "matcher_factory":
            found.add((node.lineno, "A002",
                       "matcher_factory is back (match_members picks "
                       "each member's access method)"))
    return sorted(found)


def check_file(path, root):
    in_matching = path.relative_to(root).parts[0] == "matching"
    return check_source(path.read_text(), str(path), in_matching)


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "src/repro")
    total = 0
    for path in sorted(root.rglob("*.py")):
        for lineno, code, msg in check_file(path, root):
            print(f"{path}:{lineno}: {code} {msg}")
            total += 1
    print(f"-- {total} finding(s)")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
