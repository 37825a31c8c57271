"""Collection schemas inferred from loaded data (schema-aware checks).

GraphQL data is semistructured — graphs in one collection need not share
attributes — so there is no declared schema to check against.  What the
analyzer uses instead is an *observed* schema: the union of attribute
names (with the value types seen for each), tuple tags and node labels
actually present in a collection.  A predicate over an attribute no
graph carries is legal (it evaluates to false via the MISSING sentinel)
but almost surely a typo, which is exactly the kind of finding a
WARNING exists for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Optional, Set

#: Type buckets for confusion checks: int/float/bool order and compare
#: with each other, strings only with strings.
_NUMERIC = ("int", "float", "bool")


def type_bucket(value: object) -> str:
    """``"number"`` / ``"str"`` / ``"other"`` for a scalar value."""
    name = type(value).__name__
    if name in _NUMERIC:
        return "number"
    if name == "str":
        return "str"
    return "other"


@dataclass
class CollectionSchema:
    """The observed shape of one graph collection.

    ``node_attrs`` / ``edge_attrs`` / ``graph_attrs`` map attribute
    names to the set of type buckets seen for them; ``node_tags`` /
    ``edge_tags`` collect tuple tags and ``labels`` the distinct values
    of the ``label`` attribute (the planner's label index key).
    """

    node_attrs: Dict[str, Set[str]] = field(default_factory=dict)
    edge_attrs: Dict[str, Set[str]] = field(default_factory=dict)
    graph_attrs: Dict[str, Set[str]] = field(default_factory=dict)
    node_tags: Set[str] = field(default_factory=set)
    edge_tags: Set[str] = field(default_factory=set)
    labels: Set[str] = field(default_factory=set)
    #: how many graphs the inference saw (0 == empty/unknown schema)
    graphs: int = 0

    def known_attr(self, name: str) -> bool:
        """Whether *name* appears as an attribute anywhere."""
        return (name in self.node_attrs or name in self.edge_attrs
                or name in self.graph_attrs)


def _note(attrs: Dict[str, Set[str]], tuple_like: Iterable[str],
          getter: Callable[[str], object]) -> None:
    for name in tuple_like:
        attrs.setdefault(name, set()).add(type_bucket(getter(name)))


def infer_schema(collection: Iterable) -> CollectionSchema:
    """Scan a collection (or a single graph) into a
    :class:`CollectionSchema`.

    Accepts anything iterable over graphs — a
    :class:`~repro.core.collection.GraphCollection` — or a single
    :class:`~repro.core.graph.Graph` (wrapped transparently).
    """
    graphs = [collection] if hasattr(collection, "nodes") else list(collection)
    schema = CollectionSchema()
    for graph in graphs:
        schema.graphs += 1
        _note(schema.graph_attrs, graph.tuple, graph.tuple.get)
        for node in graph.nodes():
            _note(schema.node_attrs, node.tuple, node.tuple.get)
            if node.tag:
                schema.node_tags.add(node.tag)
            label = node.tuple.get("label")
            if isinstance(label, str):
                schema.labels.add(label)
        for edge in graph.edges():
            _note(schema.edge_attrs, edge.tuple, edge.tuple.get)
            if edge.tag:
                schema.edge_tags.add(edge.tag)
    return schema


def schema_for_document(database: Any, document: str) -> Optional[CollectionSchema]:
    """Infer the schema of a registered document; ``None`` when absent."""
    try:
        collection = database.doc(document)
    except KeyError:
        return None
    return infer_schema(collection)
