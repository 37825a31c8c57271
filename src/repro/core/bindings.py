"""Matched graphs: bindings between a pattern and a graph.

Definition 4.3: given an injective mapping Φ between a pattern P and a
graph G, a *matched graph* is the triple ⟨Φ, P, G⟩.  A matched graph has
all the characteristics of a graph (it *is* G, plus the binding), so a
collection of matched graphs is again a collection of graphs and can be
matched against further patterns or fed to composition.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

from .graph import Edge, Graph, Node
from .predicate import MISSING


class Mapping:
    """The injective mapping Φ: pattern elements → graph elements.

    Node and edge assignments are kept separately; both map pattern element
    *names* to graph element *ids*.
    """

    __slots__ = ("nodes", "edges")

    def __init__(
        self,
        nodes: Optional[Dict[str, str]] = None,
        edges: Optional[Dict[str, str]] = None,
    ) -> None:
        self.nodes = dict(nodes) if nodes else {}
        self.edges = dict(edges) if edges else {}

    def __getitem__(self, pattern_node: str) -> str:
        return self.nodes[pattern_node]

    def __contains__(self, pattern_node: str) -> bool:
        return pattern_node in self.nodes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return self.nodes == other.nodes

    def __hash__(self) -> int:
        return hash(frozenset(self.nodes.items()))

    def __len__(self) -> int:
        return len(self.nodes)

    def items(self):
        """Node assignments as ``(pattern_name, graph_id)`` pairs."""
        return self.nodes.items()

    def copy(self) -> "Mapping":
        """An independent copy."""
        return Mapping(self.nodes, self.edges)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}->{v}" for k, v in sorted(self.nodes.items()))
        return f"Mapping({inner})"


class MatchedGraph:
    """The triple ⟨Φ, P, G⟩ of Definition 4.3.

    Attribute-path resolution (used by predicates and templates) sees the
    binding first: ``M.v1`` is the data node matched to pattern node
    ``v1``; failing that, graph attributes and plain node ids of G are
    visible, so a matched graph can be used anywhere a graph can.
    """

    __slots__ = ("mapping", "pattern", "graph")

    def __init__(self, mapping: Mapping, pattern: Any, graph: Graph) -> None:
        self.mapping = mapping
        self.pattern = pattern
        self.graph = graph

    # -- path resolution -------------------------------------------------------

    def resolve(self, name: str) -> Any:
        """Resolve one path step through the binding, then through G."""
        if name in self.mapping.nodes:
            return self.graph.node(self.mapping.nodes[name])
        if name in self.mapping.edges:
            return self.graph.edge(self.mapping.edges[name])
        if self.graph.has_node(name):
            return self.graph.node(name)
        if name in self.graph.members:
            return self.graph.members[name]
        value = self.graph.tuple.get(name, MISSING)
        return value

    def node(self, pattern_name: str) -> Node:
        """The data node matched to a pattern node name."""
        return self.graph.node(self.mapping.nodes[pattern_name])

    def edge(self, pattern_name: str) -> Edge:
        """The data edge matched to a pattern edge name."""
        return self.graph.edge(self.mapping.edges[pattern_name])

    # -- graph characteristics ----------------------------------------------------

    def as_graph(self) -> Graph:
        """The underlying graph G."""
        return self.graph

    def nodes(self) -> Iterator[Node]:
        """Iterate nodes of the underlying graph."""
        return self.graph.nodes()

    def edges(self) -> Iterator[Edge]:
        """Iterate edges of the underlying graph."""
        return self.graph.edges()

    def get(self, attr: str, default: Any = None) -> Any:
        """Graph-level attribute of G."""
        return self.graph.get(attr, default)

    def equals(self, other: Any) -> bool:
        """The same node and edge mapping on an equal graph."""
        return (isinstance(other, MatchedGraph)
                and self.mapping.nodes == other.mapping.nodes
                and self.mapping.edges == other.mapping.edges
                and self.graph.equals(other.graph))

    def __repr__(self) -> str:
        return f"MatchedGraph({self.mapping!r} on {self.graph!r})"


def as_graph(graph_like: Any) -> Graph:
    """Coerce a graph or matched graph to a plain :class:`Graph`."""
    if isinstance(graph_like, MatchedGraph):
        return graph_like.graph
    if isinstance(graph_like, Graph):
        return graph_like
    raise TypeError(f"expected Graph or MatchedGraph, got {type(graph_like).__name__}")
