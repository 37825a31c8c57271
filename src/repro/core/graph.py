"""Attributed graphs: the basic unit of information in GraphQL.

A :class:`Graph` is a set of named nodes and named edges, each annotated
with an :class:`~repro.core.tuples.AttributeTuple` (Section 3.1).  Graphs
are undirected by default, matching the paper's Datalog translation which
writes each edge twice to permute its end points (Fig. 4.14); directed
graphs are supported with ``Graph(directed=True)``.

Implementation notes that mirror Section 4.1 of the paper:

* edges are kept in a hashtable keyed by end-point pairs so that the
  ``Check`` step of Algorithm 4.1 (does edge ``(v, phi(u_j))`` exist?) is
  O(1);
* adjacency lists are maintained for neighbor iteration.
"""

from __future__ import annotations

from typing import AbstractSet, Any, Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from .tuples import AttributeTuple


_set_slot = object.__setattr__


def _set_element_attr(element: Any, name: str, value: Any) -> None:
    """``__setattr__`` of nodes and edges: a new ``tuple`` passes to the
    graph that owns the old one and bumps its :attr:`Graph.version`."""
    if name == "tuple":
        old = getattr(element, "tuple", None)
        owner = old._owner if old is not None else None
        if owner is not None:
            value = value.owned_by(owner)
            owner.version += 1
    _set_slot(element, name, value)


class Node:
    """A graph node: an identifier plus an attribute tuple."""

    __slots__ = ("id", "tuple")
    __setattr__ = _set_element_attr

    def __init__(self, node_id: str, attrs: Optional[AttributeTuple] = None) -> None:
        _set_slot(self, "id", node_id)
        _set_slot(self, "tuple", attrs if attrs is not None else AttributeTuple())

    def __getitem__(self, name: str) -> Any:
        return self.tuple[name]

    def get(self, name: str, default: Any = None) -> Any:
        """Attribute lookup with a default."""
        return self.tuple.get(name, default)

    @property
    def tag(self) -> Optional[str]:
        """The node tuple's type tag."""
        return self.tuple.tag

    @property
    def label(self) -> Any:
        """Convenience accessor for the conventional ``label`` attribute."""
        return self.tuple.get("label")

    def __repr__(self) -> str:
        return f"Node({self.id!r}, {self.tuple!r})"


class Edge:
    """A graph edge: an identifier, two end points, and attributes."""

    __slots__ = ("id", "source", "target", "tuple")
    __setattr__ = _set_element_attr

    def __init__(
        self,
        edge_id: str,
        source: str,
        target: str,
        attrs: Optional[AttributeTuple] = None,
    ) -> None:
        _set_slot(self, "id", edge_id)
        _set_slot(self, "source", source)
        _set_slot(self, "target", target)
        _set_slot(self, "tuple", attrs if attrs is not None else AttributeTuple())

    def __getitem__(self, name: str) -> Any:
        return self.tuple[name]

    def get(self, name: str, default: Any = None) -> Any:
        """Attribute lookup with a default."""
        return self.tuple.get(name, default)

    @property
    def tag(self) -> Optional[str]:
        """The edge tuple's type tag."""
        return self.tuple.tag

    def endpoints(self) -> Tuple[str, str]:
        """The ``(source, target)`` node-id pair."""
        return (self.source, self.target)

    def other(self, node_id: str) -> str:
        """The end point opposite *node_id*."""
        if node_id == self.source:
            return self.target
        if node_id == self.target:
            return self.source
        raise KeyError(f"{node_id!r} is not an end point of edge {self.id!r}")

    def __repr__(self) -> str:
        return f"Edge({self.id!r}, {self.source!r} -> {self.target!r})"


class Graph:
    """An attributed graph with named nodes and edges.

    Parameters
    ----------
    name:
        Optional graph name (``graph G { ... }``).
    attrs:
        Graph-level attribute tuple (``graph G <inproceedings> { ... }``).
    directed:
        Whether edges are ordered pairs.  Defaults to undirected.
    """

    def __init__(
        self,
        name: Optional[str] = None,
        attrs: Optional[AttributeTuple] = None,
        directed: bool = False,
    ) -> None:
        self.name = name
        self._tuple = (attrs if attrs is not None
                       else AttributeTuple()).owned_by(self)
        self.directed = directed
        self._nodes: Dict[str, Node] = {}
        self._edges: Dict[str, Edge] = {}
        # adjacency: node id -> neighbor id -> list of edge ids
        self._adj: Dict[str, Dict[str, List[str]]] = {}
        # for directed graphs, reverse adjacency
        self._radj: Dict[str, Dict[str, List[str]]] = {}
        # edge lookup by end-point pair (first edge id for the pair)
        self._edge_by_pair: Dict[Tuple[str, str], str] = {}
        self._next_node = 0
        self._next_edge = 0
        # named member subgraphs (used by Cartesian product / composition)
        self.members: Dict[str, "Graph"] = {}
        # bumped on every mutation, structural or of an attribute of the
        # graph, a node or an edge (tuples are owned, see owned_by);
        # index structures and memos record the version they were built
        # against and detect staleness
        self.version = 0

    @property
    def tuple(self) -> AttributeTuple:
        """The graph-level attribute tuple."""
        return self._tuple

    @tuple.setter
    def tuple(self, attrs: AttributeTuple) -> None:
        self._tuple = attrs.owned_by(self)
        self.version += 1

    # -- construction --------------------------------------------------------

    def add_node(
        self,
        node_id: Optional[str] = None,
        tag: Optional[str] = None,
        **attrs: Any,
    ) -> Node:
        """Add a node and return it.

        An id is generated (``v1, v2, ...``) when none is given.  Keyword
        arguments become tuple attributes.
        """
        if node_id is None:
            while True:
                self._next_node += 1
                node_id = f"v{self._next_node}"
                if node_id not in self._nodes:
                    break
        elif node_id in self._nodes:
            raise ValueError(f"duplicate node id {node_id!r}")
        node = Node(node_id, AttributeTuple(attrs, tag=tag).owned_by(self))
        self._nodes[node_id] = node
        self._adj[node_id] = {}
        if self.directed:
            self._radj[node_id] = {}
        self.version += 1
        return node

    def add_node_obj(self, node: Node) -> Node:
        """Add a pre-built :class:`Node` (copies nothing, unless its tuple
        belongs to another graph)."""
        if node.id in self._nodes:
            raise ValueError(f"duplicate node id {node.id!r}")
        _set_slot(node, "tuple", node.tuple.owned_by(self))
        self._nodes[node.id] = node
        self._adj[node.id] = {}
        if self.directed:
            self._radj[node.id] = {}
        self.version += 1
        return node

    def add_edge(
        self,
        source: str,
        target: str,
        edge_id: Optional[str] = None,
        tag: Optional[str] = None,
        **attrs: Any,
    ) -> Edge:
        """Add an edge between two existing nodes and return it."""
        if source not in self._nodes:
            raise KeyError(f"unknown node {source!r}")
        if target not in self._nodes:
            raise KeyError(f"unknown node {target!r}")
        if edge_id is None:
            while True:
                self._next_edge += 1
                edge_id = f"e{self._next_edge}"
                if edge_id not in self._edges:
                    break
        elif edge_id in self._edges:
            raise ValueError(f"duplicate edge id {edge_id!r}")
        edge = Edge(edge_id, source, target,
                    AttributeTuple(attrs, tag=tag).owned_by(self))
        self._edges[edge_id] = edge
        self._adj[source].setdefault(target, []).append(edge_id)
        if self.directed:
            self._radj[target].setdefault(source, []).append(edge_id)
        else:
            if source != target:
                self._adj[target].setdefault(source, []).append(edge_id)
        self._edge_by_pair.setdefault((source, target), edge_id)
        if not self.directed:
            self._edge_by_pair.setdefault((target, source), edge_id)
        self.version += 1
        return edge

    def remove_edge(self, edge_id: str) -> None:
        """Remove an edge by id."""
        edge = self._edges.pop(edge_id)
        for u, v in ((edge.source, edge.target), (edge.target, edge.source)):
            bucket = self._adj.get(u, {}).get(v)
            if bucket and edge_id in bucket:
                bucket.remove(edge_id)
                if not bucket:
                    del self._adj[u][v]
            if self.directed:
                rbucket = self._radj.get(v, {}).get(u)
                if rbucket and edge_id in rbucket:
                    rbucket.remove(edge_id)
                    if not rbucket:
                        del self._radj[v][u]
        for pair in [(edge.source, edge.target), (edge.target, edge.source)]:
            if self._edge_by_pair.get(pair) == edge_id:
                del self._edge_by_pair[pair]
                remaining = self._adj.get(pair[0], {}).get(pair[1], [])
                if remaining:
                    self._edge_by_pair[pair] = remaining[0]
        self.version += 1

    def remove_node(self, node_id: str) -> None:
        """Remove a node and all its incident edges."""
        if node_id not in self._nodes:
            raise KeyError(f"unknown node {node_id!r}")
        for edge_id in list(self.incident_edges(node_id)):
            self.remove_edge(edge_id)
        del self._nodes[node_id]
        del self._adj[node_id]
        self.version += 1
        if self.directed:
            del self._radj[node_id]

    # -- access ----------------------------------------------------------------

    def node(self, node_id: str) -> Node:
        """The node with the given id (KeyError if absent)."""
        return self._nodes[node_id]

    def edge(self, edge_id: str) -> Edge:
        """The edge with the given id (KeyError if absent)."""
        return self._edges[edge_id]

    def has_node(self, node_id: str) -> bool:
        """Whether a node with this id exists."""
        return node_id in self._nodes

    def has_edge(self, source: str, target: str) -> bool:
        """Whether an edge connects the two nodes (O(1) pair hashtable)."""
        return (source, target) in self._edge_by_pair

    def edge_between(self, source: str, target: str) -> Optional[Edge]:
        """The edge between two nodes, or ``None``."""
        edge_id = self._edge_by_pair.get((source, target))
        return self._edges[edge_id] if edge_id is not None else None

    def edge_pairs(self) -> Mapping[Tuple[str, str], str]:
        """The O(1) end-point-pair hashtable, read-only: ``(source,
        target)`` -> id of the first edge joining them.  An undirected
        edge is keyed both ways, a directed one only in its direction,
        so a probe is exactly :meth:`edge_between` without the edge
        object (what Algorithm 4.1's ``Check`` needs)."""
        return self._edge_by_pair

    def nodes(self) -> Iterator[Node]:
        """Iterate over nodes in insertion order."""
        return iter(self._nodes.values())

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges in insertion order."""
        return iter(self._edges.values())

    def node_ids(self) -> List[str]:
        """All node ids in insertion order."""
        return list(self._nodes)

    def edge_ids(self) -> List[str]:
        """All edge ids in insertion order."""
        return list(self._edges)

    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    def num_edges(self) -> int:
        """Number of edges."""
        return len(self._edges)

    def neighbors(self, node_id: str) -> List[str]:
        """Neighbor node ids (out-neighbors for directed graphs)."""
        return list(self._adj[node_id])

    def in_neighbors(self, node_id: str) -> List[str]:
        """In-neighbors (equals :meth:`neighbors` for undirected graphs)."""
        if not self.directed:
            return list(self._adj[node_id])
        return list(self._radj[node_id])

    def all_neighbors(self, node_id: str) -> List[str]:
        """Neighbors ignoring direction (union of in and out)."""
        if not self.directed:
            return list(self._adj[node_id])
        seen = dict.fromkeys(self._adj[node_id])
        seen.update(dict.fromkeys(self._radj[node_id]))
        return list(seen)

    def neighbor_set(self, node_id: str) -> AbstractSet[str]:
        """Neighbors ignoring direction as a read-only set: for an
        undirected graph a live view of the adjacency, no copy."""
        if not self.directed:
            return self._adj[node_id].keys()
        return self._adj[node_id].keys() | self._radj[node_id].keys()

    def degree(self, node_id: str) -> int:
        """Number of incident edges (in+out for directed graphs)."""
        total = sum(len(b) for b in self._adj[node_id].values())
        if self.directed:
            total += sum(len(b) for b in self._radj[node_id].values())
        elif self._adj[node_id].get(node_id):
            # undirected self-loops appear once in the adjacency bucket
            total += len(self._adj[node_id][node_id])
        return total

    def incident_edges(self, node_id: str) -> Iterator[str]:
        """Iterate ids of edges incident to the node."""
        seen: Set[str] = set()
        for bucket in self._adj[node_id].values():
            for edge_id in bucket:
                if edge_id not in seen:
                    seen.add(edge_id)
                    yield edge_id
        if self.directed:
            for bucket in self._radj[node_id].values():
                for edge_id in bucket:
                    if edge_id not in seen:
                        seen.add(edge_id)
                        yield edge_id

    def __getitem__(self, attr: str) -> Any:
        """Graph-level attribute lookup."""
        return self.tuple[attr]

    def get(self, attr: str, default: Any = None) -> Any:
        """Graph-level attribute lookup with a default."""
        return self.tuple.get(attr, default)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    # -- derived graphs ---------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "Graph":
        """A deep copy (tuples copied, same ids)."""
        out = Graph(name if name is not None else self.name,
                    self.tuple.copy(), directed=self.directed)
        for node in self.nodes():
            out.add_node_obj(Node(node.id, node.tuple.copy()))
        for edge in self.edges():
            out.add_edge(edge.source, edge.target, edge_id=edge.id,
                         **{})
            out.edge(edge.id).tuple = edge.tuple.copy()
        out._next_node = self._next_node
        out._next_edge = self._next_edge
        return out

    def induced_subgraph(self, node_ids: Iterable[str], name: Optional[str] = None) -> "Graph":
        """The subgraph induced by the given nodes (copies tuples)."""
        keep = set(node_ids)
        out = Graph(name, directed=self.directed)
        for node_id in keep:
            node = self._nodes[node_id]
            out.add_node_obj(Node(node.id, node.tuple.copy()))
        for edge in self.edges():
            if edge.source in keep and edge.target in keep:
                out.add_edge(edge.source, edge.target, edge_id=edge.id)
                out.edge(edge.id).tuple = edge.tuple.copy()
        return out

    def relabeled(self, mapping: Mapping[str, str], name: Optional[str] = None) -> "Graph":
        """A copy with node ids renamed through *mapping* (others kept)."""
        out = Graph(name if name is not None else self.name,
                    self.tuple.copy(), directed=self.directed)
        for node in self.nodes():
            out.add_node_obj(Node(mapping.get(node.id, node.id), node.tuple.copy()))
        for edge in self.edges():
            new = out.add_edge(
                mapping.get(edge.source, edge.source),
                mapping.get(edge.target, edge.target),
                edge_id=edge.id,
            )
            new.tuple = edge.tuple.copy()
        return out

    # -- comparison ----------------------------------------------------------------

    def equals(self, other: "Graph") -> bool:
        """Exact equality: same ids, same structure, same attributes."""
        if not isinstance(other, Graph):
            return False
        if self.directed != other.directed or self.tuple != other.tuple:
            return False
        if set(self._nodes) != set(other._nodes):
            return False
        for node_id, node in self._nodes.items():
            if node.tuple != other._nodes[node_id].tuple:
                return False
        mine = self._edge_pair_multiset()
        theirs = other._edge_pair_multiset()
        return mine == theirs

    def _edge_pair_multiset(self) -> Dict[Tuple[str, str], List[AttributeTuple]]:
        pairs: Dict[Tuple[str, str], List[AttributeTuple]] = {}
        for edge in self.edges():
            key = (edge.source, edge.target)
            if not self.directed and key[0] > key[1]:
                key = (key[1], key[0])
            pairs.setdefault(key, []).append(edge.tuple)
        for bucket in pairs.values():
            bucket.sort(key=repr)
        return pairs

    def signature(self) -> int:
        """A structural+attribute hash consistent with :meth:`equals`."""
        node_part = tuple(sorted((nid, hash(n.tuple)) for nid, n in self._nodes.items()))
        edge_part = tuple(
            sorted(
                (pair, tuple(hash(t) for t in ts))
                for pair, ts in self._edge_pair_multiset().items()
            )
        )
        return hash((self.directed, hash(self.tuple), node_part, edge_part))

    def __repr__(self) -> str:
        name = self.name or "<anon>"
        return (
            f"Graph({name}, nodes={len(self._nodes)}, edges={len(self._edges)}, "
            f"directed={self.directed})"
        )


def disjoint_union(
    parts: Mapping[str, Graph],
    name: Optional[str] = None,
    directed: Optional[bool] = None,
) -> Graph:
    """Compose member graphs into one graph with qualified node ids.

    Node ``v1`` of member ``X`` becomes ``X.v1`` in the result; the
    ``members`` mapping on the result records the original graphs.  This is
    the structural core of the Cartesian product operator (Section 3.3).
    """
    if directed is None:
        directed = any(g.directed for g in parts.values())
    out = Graph(name, directed=directed)
    for alias, part in parts.items():
        for node in part.nodes():
            out.add_node_obj(Node(f"{alias}.{node.id}", node.tuple.copy()))
        for edge in part.edges():
            new = out.add_edge(
                f"{alias}.{edge.source}", f"{alias}.{edge.target}",
                edge_id=f"{alias}.{edge.id}",
            )
            new.tuple = edge.tuple.copy()
        out.members[alias] = part
    return out
