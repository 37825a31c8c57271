"""Matched graphs: bindings between a pattern and a graph.

Definition 4.3: given an injective mapping Φ between a pattern P and a
graph G, a *matched graph* is the triple ⟨Φ, P, G⟩.  A matched graph has
all the characteristics of a graph (it *is* G, plus the binding), so a
collection of matched graphs is again a collection of graphs and can be
matched against further patterns or fed to composition.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import islice
from typing import Any, Dict, Iterable, Iterator, NamedTuple, Optional, Tuple

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


class Block(NamedTuple):
    """One search's answers on one graph, as a binding table: the one
    row layout from Algorithm 4.1's leaf to the socket.

    Each row is one flat tuple: the data node ids in ``nodes`` order,
    then the data edge ids in ``edges`` order.  The search emits its
    block with ``graph`` empty; :meth:`GraphDatabase.execute
    <repro.storage.database.GraphDatabase.execute>` names it with
    ``_replace``, which shares ``rows``, so the memo, the result cache
    and every reply hold the same row tuples.  The wire sends exactly
    this shape (:mod:`repro.service.protocol`)."""

    graph: str
    nodes: Sequence[str]
    edges: Sequence[str]
    rows: Sequence[Sequence[str]]
    #: the cluster shard that answered (set by the coordinator's merge)
    shard: Optional[str] = None


def row_mapping(block: Block, row: Sequence[str]) -> Mapping:
    """The :class:`Mapping` of one row under its block's names: the row
    sliced at the block's node width."""
    mapping = Mapping.__new__(Mapping)
    mapping.nodes = dict(zip(block.nodes, row))
    mapping.edges = dict(zip(block.edges, row[len(block.nodes):]))
    return mapping


class BlockSequence(Sequence):
    """Read-only rows over answer blocks: the one implementation of
    ``len()``, iteration and indexing (int, negative and slice).

    ``len()`` counts rows without reading any; every read goes through
    the subclass's :meth:`read`, new on each access.
    """

    __slots__ = ("blocks", "_size")

    def __init__(self, blocks: Iterable[Block] = ()) -> None:
        self.blocks: Tuple[Block, ...] = tuple(blocks)
        self._size = sum(len(block.rows) for block in self.blocks)

    @staticmethod
    def read(block: Block, row: Sequence[str]) -> Any:
        """One row as its reader sees it."""
        raise NotImplementedError

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Any]:
        read = self.read
        for block in self.blocks:
            for row in block.rows:
                yield read(block, row)

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._size)
            if step < 0:
                return list(self)[index]
            return list(islice(self, start, stop, step))
        position = index + self._size if index < 0 else index
        if position >= 0:
            for block in self.blocks:
                if position < len(block.rows):
                    return self.read(block, block.rows[position])
                position -= len(block.rows)
        raise IndexError(f"{type(self).__name__} index out of range")

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self._size} row(s) in "
                f"{len(self.blocks)} block(s))")


class AnswerTable(BlockSequence):
    """A bag of mappings as flat rows under fixed schemas (a binding
    table), one :class:`Block` per search.

    The table is immutable, so reports, memoised runs and cached answers
    share it instead of copying mappings.  ``len()`` counts the
    mappings; iterating, indexing and slicing build :class:`Mapping`
    objects on access, keys in schema order.
    """

    __slots__ = ()

    read = staticmethod(row_mapping)

    def __add__(self, other: "AnswerTable") -> "AnswerTable":
        """The answers of both tables, this one's first."""
        return AnswerTable(self.blocks + other.blocks)


#: The table of no answers.
EMPTY_ANSWERS = AnswerTable()


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
