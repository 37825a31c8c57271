"""Lock-discipline lint: no blocking calls while holding a lock.

The service and cluster layers hold ``threading.Lock``s only for short
bookkeeping sections; a blocking call inside ``with self._lock:`` turns
every other thread's microsecond critical section into seconds of
convoy (and, for a worker whose request waits on that lock, a missed
deadline).  This script walks the stdlib ast of the given files and
flags calls that can block indefinitely while a lock-like context
manager is held:

  C001  time.sleep(...) under a lock
  C002  Future/queue/thread synchronization under a lock:
        .result() / .join() / .wait() / .acquire() / .get() with no
        timeout argument (a bounded wait is loud in the code and allowed)
  C003  socket/subprocess I/O under a lock: .recv/.recvfrom/.accept/
        .connect/.sendall/.makefile, subprocess run/call/check_output/
        communicate/Popen.wait
  C004  a nested ``with <lock>:`` under a lock (ordering hazard; one
        order inverted elsewhere deadlocks)

A context manager counts as lock-like when the expression's last name
segment contains ``lock`` or ``mutex`` (case-insensitive):
``self._lock``, ``self._counter_lock``, ``registry.lock()``.  tracer
spans, files and pools do not match, keeping the lint quiet on the
overwhelmingly common safe ``with`` uses.

Reviewed exceptions are waived line-by-line with a trailing comment::

    with self._lock:
        probe.wait()  # lint: allow-blocking-under-lock — <why it is safe>

Run: ``python tools/lint_concurrency.py [paths...]`` (defaults to
``src/repro/service src/repro/cluster``); exits non-zero on findings.
CI runs it in the lint job next to ruff.
"""
import ast
import sys
from pathlib import Path

WAIVER = "lint: allow-blocking-under-lock"

#: method names that block until an event with no inherent bound;
#: flagged only when called without a timeout argument (C002)
_SYNC_METHODS = {"result", "join", "wait", "acquire", "get"}

#: method/function names that do network or process I/O (C003)
_IO_METHODS = {"recv", "recvfrom", "recv_into", "accept", "connect",
               "sendall", "makefile", "communicate", "check_output",
               "check_call", "call", "run"}

#: subprocess module-level callables (C003 when called as subprocess.X)
_SUBPROCESS_FUNCS = {"run", "call", "check_call", "check_output", "Popen"}


def _last_segment(expr):
    """The final attribute/name segment of a dotted expression, or ''."""
    if isinstance(expr, ast.Call):
        return _last_segment(expr.func)
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return ""


def _is_lock_like(expr):
    """Whether a with-item expression looks like a mutex guard."""
    name = _last_segment(expr).lower()
    return "lock" in name or "mutex" in name


def _root_name(expr):
    """The leading name of a dotted expression (``time`` in
    ``time.sleep``), or ''."""
    while isinstance(expr, ast.Attribute):
        expr = expr.value
    return expr.id if isinstance(expr, ast.Name) else ""


def _has_timeout(call):
    """Whether the call passes any argument at all (positional timeout)
    or an explicit ``timeout=``/``block=`` keyword."""
    if call.args:
        return True
    return any(kw.arg in ("timeout", "block") for kw in call.keywords)


def _classify_call(call):
    """(code, message) when *call* can block unboundedly, else None."""
    func = call.func
    if not isinstance(func, (ast.Attribute, ast.Name)):
        return None
    name = func.attr if isinstance(func, ast.Attribute) else func.id
    root = _root_name(func) if isinstance(func, ast.Attribute) else ""
    if name == "sleep" and root == "time":
        return ("C001", "time.sleep under a lock")
    if root == "subprocess" and name in _SUBPROCESS_FUNCS:
        return ("C003", f"subprocess.{name} under a lock")
    if isinstance(func, ast.Attribute):
        if name in _IO_METHODS:
            return ("C003", f".{name}() I/O under a lock")
        if name in _SYNC_METHODS and not _has_timeout(call):
            return ("C002",
                    f".{name}() with no timeout under a lock")
    return None


class _Visitor(ast.NodeVisitor):
    def __init__(self, waived_lines):
        self.waived = waived_lines
        self.lock_depth = 0
        self.findings = []

    def _emit(self, lineno, code, message):
        if lineno not in self.waived:
            self.findings.append((lineno, code, message))

    def visit_With(self, node):
        holds = any(_is_lock_like(item.context_expr)
                    for item in node.items)
        if holds and self.lock_depth:
            self._emit(node.lineno, "C004",
                       "nested lock acquisition under a lock "
                       "(ordering hazard)")
        self.lock_depth += int(holds)
        self.generic_visit(node)
        self.lock_depth -= int(holds)

    visit_AsyncWith = visit_With

    def visit_Call(self, node):
        if self.lock_depth:
            hit = _classify_call(node)
            if hit is not None:
                self._emit(node.lineno, *hit)
        self.generic_visit(node)

    # a nested function defined under a lock runs later, not under it
    def _skip_nested(self, node):
        if self.lock_depth:
            saved, self.lock_depth = self.lock_depth, 0
            self.generic_visit(node)
            self.lock_depth = saved
        else:
            self.generic_visit(node)

    visit_FunctionDef = _skip_nested
    visit_AsyncFunctionDef = _skip_nested
    visit_Lambda = _skip_nested


def check_source(src, filename="<source>"):
    """All findings for one source text: ``[(lineno, code, message)]``."""
    tree = ast.parse(src, filename=filename)
    waived = {
        index
        for index, line in enumerate(src.splitlines(), start=1)
        if WAIVER in line
    }
    visitor = _Visitor(waived)
    visitor.visit(tree)
    return sorted(visitor.findings)


def check_file(path):
    return check_source(path.read_text(), filename=str(path))


def main():
    roots = [Path(a) for a in (sys.argv[1:]
                               or ["src/repro/service", "src/repro/cluster"])]
    total = 0
    for root in roots:
        paths = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in paths:
            for lineno, code, msg in check_file(path):
                print(f"{path}:{lineno}: {code} {msg}")
                total += 1
    print(f"-- {total} finding(s)")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
