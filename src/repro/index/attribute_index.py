"""Per-attribute indexes over the nodes of a graph (Section 4.2).

*"Node attributes can be indexed directly using traditional index
structures such as B-trees.  This allows for fast retrieval of feasible
mates and avoids a full scan of all nodes."*

:class:`AttributeIndexSet` keeps, per indexed attribute name, a hash
table from value to the ids of the nodes carrying it (in node order) and
the sorted distinct values.  It answers the *indexable* part of a
pattern-node predicate:

* declarative tuple constraints ``<label="A">`` become hash lookups;
* pushed-down comparisons ``where year > 2000`` become two bisections
  over the sorted values;
* a ``|`` chain of such comparisons becomes the union of their lookups.

Keys follow F_u's comparison semantics (``core.predicate._compare``):
bool, int and float form one numeric class (``True == 1 == 1.0``), str
another, and no value of one class equals or orders against the other.
NaN equals and orders against nothing, so it is left out.  Anything not
indexable is re-checked by the caller, so index retrieval is always a
superset of the true feasible mates before F_u filtering, and exactly
them when :meth:`AttributeIndexSet.candidates_for` says so.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Dict, List, Optional, Tuple

from ..core.graph import Graph
from ..core.predicate import AttrRef, BinOp, Expr, Literal

#: (comparison class, value): equal keys are exactly F_u-equal values
Key = Tuple[str, Any]


class AttributeIndexSet:
    """Hash and sorted-key indexes over node attributes of one graph."""

    def __init__(self, graph: Graph, attributes: Optional[List[str]] = None) -> None:
        self.graph = graph
        #: attribute -> key -> node ids in node order
        self._postings: Dict[str, Dict[Key, List[str]]] = (
            {} if attributes is None else {attr: {} for attr in attributes})
        for node in graph.nodes():
            for attr, value in node.tuple.items():
                postings = self._postings.get(attr)
                if postings is None:
                    if attributes is not None:
                        continue
                    postings = self._postings[attr] = {}
                key = _typed_key(value)
                if key is not None:
                    postings.setdefault(key, []).append(node.id)
        #: attribute -> comparison class -> sorted distinct values
        self._sorted: Dict[str, Dict[str, List[Any]]] = {}
        for attr, postings in self._postings.items():
            by_class: Dict[str, List[Any]] = {}
            for kind, value in postings:
                by_class.setdefault(kind, []).append(value)
            for values in by_class.values():
                values.sort()
            self._sorted[attr] = by_class

    def has_index(self, attr: str) -> bool:
        """Whether the attribute is indexed."""
        return attr in self._postings

    def attributes(self) -> List[str]:
        """Indexed attribute names."""
        return list(self._postings)

    def lookup_eq(self, attr: str, value: Any) -> List[str]:
        """Node ids whose attribute equals *value*."""
        return list(self._postings[attr].get(_typed_key(value), ()))

    def lookup_range(
        self,
        attr: str,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> List[str]:
        """Node ids whose attribute lies in the given range, in key order.

        A bound admits only values of its own comparison class; without
        bounds every indexed value qualifies.
        """
        kinds = {_kind(bound) for bound in (low, high) if bound is not None}
        if None in kinds or len(kinds) > 1:
            return []  # a NaN bound, or bounds no one value satisfies both of
        by_class, postings = self._sorted[attr], self._postings[attr]
        found: List[str] = []
        for kind in kinds or sorted(by_class):
            values = by_class.get(kind, [])
            start = 0 if low is None else (
                bisect_left if include_low else bisect_right)(values, low)
            stop = len(values) if high is None else (
                bisect_right if include_high else bisect_left)(values, high)
            for value in values[start:stop]:
                found.extend(postings[kind, value])
        return found

    # -- predicate-driven retrieval ------------------------------------------------

    def candidates_for(
        self,
        required_attrs: Dict[str, Any],
        predicate: Optional[Expr] = None,
    ) -> Tuple[Optional[List[str]], bool]:
        """``(ids, exact)``: candidates for a pattern node from its most
        selective indexable condition (a ``|`` chain of them is the union
        of its lookups, in node order), ``None`` when nothing is
        indexable; *exact* when they are precisely the nodes meeting one
        ``str`` or ``num`` attribute and no predicate."""
        # F_u reads a missing attribute as None, which no posting holds
        options = [self.lookup_eq(attr, value)
                   for attr, value in required_attrs.items()
                   if self.has_index(attr) and value is not None]
        for conjunct in predicate.conjuncts() if predicate is not None else ():
            conditions = [_condition(alt) for alt in conjunct.disjuncts()]
            if all(condition is not None and self.has_index(condition[0])
                   for condition in conditions):
                options.append(self._union(
                    [self._lookup(*condition) for condition in conditions]))
        if not options:
            return None, False
        exact = (predicate is None and len(required_attrs) == len(options) == 1
                 and _kind(*required_attrs.values()) in ("str", "num"))
        return min(options, key=len), exact

    def _lookup(self, attr: str, op: str, value: Any) -> List[str]:
        if op == "==":
            return self.lookup_eq(attr, value)
        if op[0] == ">":
            return self.lookup_range(attr, low=value, include_low=op == ">=")
        return self.lookup_range(attr, high=value, include_high=op == "<=")

    def _union(self, lookups: List[List[str]]) -> List[str]:
        """The ids of several lookups, each once, in node order."""
        if len(lookups) == 1:
            return lookups[0]
        wanted = set().union(*lookups)
        return [node_id for node_id in self.graph.node_ids() if node_id in wanted]


def _kind(value: Any) -> Optional[str]:
    """The comparison class of a value; ``None`` for NaN."""
    if isinstance(value, (int, float)):  # bool is an int
        return "num" if value == value else None
    if isinstance(value, str):
        return "str"
    return type(value).__name__


def _typed_key(value: Any) -> Optional[Key]:
    kind = _kind(value)
    return None if kind is None else (kind, value)


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "=="}


def _condition(expr: Expr) -> Optional[Tuple[str, str, Any]]:
    """``(attr, op, value)`` of an index-readable ``attr OP literal``
    comparison, in either orientation (``year > 2000``, ``2000 < year``);
    a reference's last path element is the attribute."""
    if not isinstance(expr, BinOp) or expr.op not in _FLIP:
        return None
    left, right = expr.left, expr.right
    if isinstance(left, AttrRef) and isinstance(right, Literal):
        return (left.path[-1], expr.op, right.value)
    if isinstance(left, Literal) and isinstance(right, AttrRef):
        return (right.path[-1], _FLIP[expr.op], left.value)
    return None
