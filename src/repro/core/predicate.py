"""Predicate expressions over graph attributes.

A graph pattern is a pair ``(motif, predicate)`` (Definition 4.1).  The
predicate is *"a combination of boolean or arithmetic comparison
expressions"* over attribute references such as ``v1.name`` or
``P.booktitle``.  This module provides:

* the expression AST (:class:`Literal`, :class:`AttrRef`, :class:`BinOp`,
  :class:`Not`);
* evaluation against a :class:`Scope` that resolves dotted paths through
  matched graphs, graphs, nodes and edges;
* the predicate *pushdown* decomposition of Section 4.1: a conjunction is
  split into per-node predicates ``F_u``, per-edge predicates ``F_e`` and a
  residual graph-wide predicate ``F``.

Missing attributes follow semistructured semantics: a comparison involving
an absent attribute is false, so heterogeneous graphs can be queried with
one pattern.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple


class _Missing:
    """Sentinel for an unresolved attribute reference."""

    _instance: Optional["_Missing"] = None

    def __new__(cls) -> "_Missing":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "MISSING"

    def __bool__(self) -> bool:
        return False


MISSING = _Missing()

#: Binary operators in precedence groups (low to high).
BOOLEAN_OPS = ("|", "&")
COMPARISON_OPS = ("==", "!=", ">", ">=", "<", "<=")
ADDITIVE_OPS = ("+", "-")
MULTIPLICATIVE_OPS = ("*", "/")
ALL_OPS = BOOLEAN_OPS + COMPARISON_OPS + ADDITIVE_OPS + MULTIPLICATIVE_OPS


class Expr:
    """Base class of predicate expressions."""

    #: 1-based ``(line, column)`` of the token that started this
    #: expression, set by the language parser; ``None`` for expressions
    #: built programmatically.  Positions are carried for diagnostics
    #: only — they never participate in ``__eq__``/``__hash__``.
    pos: Optional[Tuple[int, int]] = None

    def evaluate(self, scope: "Scope") -> Any:
        """Evaluate against a scope; may return :data:`MISSING`."""
        raise NotImplementedError

    def holds(self, scope: "Scope") -> bool:
        """Evaluate as a boolean predicate (missing => false)."""
        value = self.evaluate(scope)
        if value is MISSING:
            return False
        return bool(value)

    def root_names(self) -> Set[str]:
        """The set of first-path-element names referenced."""
        out: Set[str] = set()
        self._collect_roots(out)
        return out

    def _collect_roots(self, out: Set[str]) -> None:
        raise NotImplementedError

    def conjuncts(self) -> List["Expr"]:
        """Split a top-level ``&`` chain into its conjuncts."""
        return [self]

    def disjuncts(self) -> List["Expr"]:
        """Split a top-level ``|`` chain into its alternatives."""
        return [self]

    def to_graphql(self) -> str:
        """Render back to GraphQL concrete syntax."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_graphql()})"


class Literal(Expr):
    """A constant ``int``, ``float`` or ``str``."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def evaluate(self, scope: "Scope") -> Any:
        return self.value

    def _collect_roots(self, out: Set[str]) -> None:
        pass

    def to_graphql(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'
        return repr(self.value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Literal) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("Literal", self.value))


class AttrRef(Expr):
    """A dotted attribute reference such as ``P.v1.name`` or ``year``."""

    __slots__ = ("path",)

    def __init__(self, path: Sequence[str]) -> None:
        if not path:
            raise ValueError("empty attribute path")
        self.path: Tuple[str, ...] = tuple(path)

    def evaluate(self, scope: "Scope") -> Any:
        return scope.resolve(self.path)

    def _collect_roots(self, out: Set[str]) -> None:
        out.add(self.path[0])

    def to_graphql(self) -> str:
        return ".".join(self.path)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AttrRef) and self.path == other.path

    def __hash__(self) -> int:
        return hash(("AttrRef", self.path))


class BinOp(Expr):
    """A binary operation; see :data:`ALL_OPS` for the operator set."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in ALL_OPS:
            raise ValueError(f"unknown operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, scope: "Scope") -> Any:
        op = self.op
        if op == "&":
            return self.left.holds(scope) and self.right.holds(scope)
        if op == "|":
            return self.left.holds(scope) or self.right.holds(scope)
        lhs = self.left.evaluate(scope)
        rhs = self.right.evaluate(scope)
        if op in COMPARISON_OPS:
            return _compare(op, lhs, rhs)
        # arithmetic: missing propagates
        if lhs is MISSING or rhs is MISSING:
            return MISSING
        try:
            if op == "+":
                return lhs + rhs
            if op == "-":
                return lhs - rhs
            if op == "*":
                return lhs * rhs
            if op == "/":
                return lhs / rhs
        except (TypeError, ZeroDivisionError):
            return MISSING
        raise AssertionError(f"unhandled operator {op!r}")

    def conjuncts(self) -> List[Expr]:
        if self.op == "&":
            return self.left.conjuncts() + self.right.conjuncts()
        return [self]

    def disjuncts(self) -> List[Expr]:
        if self.op == "|":
            return self.left.disjuncts() + self.right.disjuncts()
        return [self]

    def _collect_roots(self, out: Set[str]) -> None:
        self.left._collect_roots(out)
        self.right._collect_roots(out)

    def to_graphql(self) -> str:
        return f"({self.left.to_graphql()} {self.op} {self.right.to_graphql()})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BinOp)
            and self.op == other.op
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self) -> int:
        return hash(("BinOp", self.op, self.left, self.right))


class Not(Expr):
    """Boolean negation (algebra-level extension; not in the Appendix grammar)."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expr) -> None:
        self.operand = operand

    def evaluate(self, scope: "Scope") -> Any:
        return not self.operand.holds(scope)

    def _collect_roots(self, out: Set[str]) -> None:
        self.operand._collect_roots(out)

    def to_graphql(self) -> str:
        return f"!({self.operand.to_graphql()})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Not) and self.operand == other.operand

    def __hash__(self) -> int:
        return hash(("Not", self.operand))


def _compare(op: str, lhs: Any, rhs: Any) -> bool:
    """Comparison with semistructured semantics (missing/mismatch => false)."""
    if lhs is MISSING or rhs is MISSING:
        return False
    if op == "==":
        return lhs == rhs
    if op == "!=":
        return lhs != rhs
    try:
        if op == ">":
            return lhs > rhs
        if op == ">=":
            return lhs >= rhs
        if op == "<":
            return lhs < rhs
        if op == "<=":
            return lhs <= rhs
    except TypeError:
        return False
    raise AssertionError(f"unhandled comparison {op!r}")


def conjunction(exprs: Iterable[Expr]) -> Optional[Expr]:
    """Combine expressions with ``&``; ``None`` when the input is empty."""
    result: Optional[Expr] = None
    for expr in exprs:
        result = expr if result is None else BinOp("&", result, expr)
    return result


# --------------------------------------------------------------------------
# Scopes
# --------------------------------------------------------------------------


class Scope:
    """Resolves dotted attribute paths during predicate evaluation.

    A scope maps root names to entities (nodes, edges, graphs, matched
    graphs, or scalar values).  Path resolution then walks one step at a
    time: a graph resolves a name to one of its nodes, members or
    attributes; a node or edge resolves a name to one of its attributes.
    An optional *fallback* entity handles node-local predicates, where a
    bare ``name`` means "attribute of the node being tested".
    """

    __slots__ = ("bindings", "fallback", "parent")

    def __init__(
        self,
        bindings: Optional[Dict[str, Any]] = None,
        fallback: Any = None,
        parent: Optional["Scope"] = None,
    ) -> None:
        self.bindings = bindings or {}
        self.fallback = fallback
        self.parent = parent

    def child(self, bindings: Dict[str, Any], fallback: Any = None) -> "Scope":
        """A nested scope that shadows this one."""
        return Scope(bindings, fallback=fallback, parent=self)

    def lookup(self, name: str) -> Any:
        """Find the entity bound to a root name, or :data:`MISSING`."""
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.bindings:
                return scope.bindings[name]
            scope = scope.parent
        return MISSING

    def resolve(self, path: Tuple[str, ...]) -> Any:
        """Resolve a full dotted path to a scalar value (or MISSING)."""
        current = self.lookup(path[0])
        rest = path[1:]
        if current is MISSING:
            # fall back to attribute lookup on the implicit entity
            if self.fallback is not None:
                return _resolve_steps(self.fallback, path)
            return MISSING
        return _resolve_steps(current, rest) if rest else _terminalize(current)


def _terminalize(entity: Any) -> Any:
    """A path ending on an entity: scalars pass through, others are opaque."""
    return entity


def _resolve_steps(entity: Any, steps: Tuple[str, ...]) -> Any:
    for step in steps:
        entity = _resolve_one(entity, step)
        if entity is MISSING:
            return MISSING
    return _terminalize(entity)


def _resolve_one(entity: Any, name: str) -> Any:
    # local import to avoid a cycle (bindings imports predicate)
    from .bindings import MatchedGraph
    from .graph import Edge, Graph, Node

    if isinstance(entity, MatchedGraph):
        return entity.resolve(name)
    if isinstance(entity, Graph):
        if entity.has_node(name):
            return entity.node(name)
        if name in entity.members:
            return entity.members[name]
        qualified = _find_qualified_member_node(entity, name)
        if qualified is not None:
            return qualified
        value = entity.tuple.get(name, MISSING)
        return value if value is not MISSING else MISSING
    if isinstance(entity, (Node, Edge)):
        return entity.tuple.get(name, MISSING)
    if isinstance(entity, dict):
        return entity.get(name, MISSING)
    return MISSING


def _find_qualified_member_node(graph: Any, name: str) -> Any:
    """Inside a composed graph, ``X`` may name the alias prefix of nodes."""
    prefix = name + "."
    hits = [nid for nid in graph.node_ids() if nid.startswith(prefix)]
    if not hits:
        return None
    view = {nid[len(prefix):]: graph.node(nid) for nid in hits}
    return view


# --------------------------------------------------------------------------
# Predicate pushdown (Section 4.1)
# --------------------------------------------------------------------------


class DecomposedPredicate:
    """A predicate split into per-element and residual parts.

    ``node_preds[u]`` collects the conjuncts referencing only pattern node
    ``u``; ``edge_preds[e]`` those referencing only edge ``e`` (or only the
    edge and its own end points is *not* pushed — end points are separate
    elements); everything else stays in :attr:`residual`.
    """

    def __init__(
        self,
        node_preds: Dict[str, Expr],
        edge_preds: Dict[str, Expr],
        residual: Optional[Expr],
    ) -> None:
        self.node_preds = node_preds
        self.edge_preds = edge_preds
        self.residual = residual


def decompose(
    predicate: Optional[Expr],
    node_names: Set[str],
    edge_names: Set[str],
) -> DecomposedPredicate:
    """Push conjuncts of *predicate* down to individual nodes and edges.

    A conjunct whose root names all equal one node name is pushed to that
    node; likewise for edges.  Conjuncts such as ``u1.label == u2.label``
    remain in the residual graph-wide predicate (Section 4.1).
    """
    node_parts: Dict[str, List[Expr]] = {}
    edge_parts: Dict[str, List[Expr]] = {}
    residual_parts: List[Expr] = []
    if predicate is not None:
        for conjunct in predicate.conjuncts():
            roots = conjunct.root_names()
            if len(roots) == 1:
                (root,) = tuple(roots)
                if root in node_names:
                    node_parts.setdefault(root, []).append(conjunct)
                    continue
                if root in edge_names:
                    edge_parts.setdefault(root, []).append(conjunct)
                    continue
            residual_parts.append(conjunct)
    node_preds = {k: conjunction(v) for k, v in node_parts.items()}
    edge_preds = {k: conjunction(v) for k, v in edge_parts.items()}
    return DecomposedPredicate(
        {k: v for k, v in node_preds.items() if v is not None},
        {k: v for k, v in edge_preds.items() if v is not None},
        conjunction(residual_parts),
    )
