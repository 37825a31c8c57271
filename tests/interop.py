"""Test helper: conversion between repro graphs and networkx graphs.

The VF2 cross-checks compare the matcher against networkx on the same
data; nothing in ``src/`` needs networkx, so the conversion lives here.

Node attributes map to tuple attributes; the reserved key ``__tag__``
carries the tuple tag in the networkx direction.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.graph import Graph
from repro.core.tuples import AttributeTuple

_TAG_KEY = "__tag__"


def to_networkx(graph: Graph):
    """Convert to ``networkx.Graph`` / ``DiGraph`` (attributes copied)."""
    import networkx as nx

    out = nx.DiGraph() if graph.directed else nx.Graph()
    out.graph.update(graph.tuple.as_dict())
    if graph.tuple.tag is not None:
        out.graph[_TAG_KEY] = graph.tuple.tag
    if graph.name is not None:
        out.graph.setdefault("name", graph.name)
    for node in graph.nodes():
        attrs = node.tuple.as_dict()
        if node.tag is not None:
            attrs[_TAG_KEY] = node.tag
        out.add_node(node.id, **attrs)
    for edge in graph.edges():
        attrs = edge.tuple.as_dict()
        if edge.tag is not None:
            attrs[_TAG_KEY] = edge.tag
        out.add_edge(edge.source, edge.target, **attrs)
    return out


def from_networkx(nx_graph, name: Optional[str] = None) -> Graph:
    """Convert from any networkx graph (nodes coerced to string ids).

    Multigraphs collapse parallel edges (the data model stores one edge
    per pair); non-scalar attribute values are skipped with their keys.
    """
    import networkx as nx

    directed = nx_graph.is_directed()
    graph_attrs = {
        k: v for k, v in nx_graph.graph.items()
        if k not in ("name", _TAG_KEY) and _is_scalar(v)
    }
    graph = Graph(
        name if name is not None else nx_graph.graph.get("name"),
        AttributeTuple(graph_attrs, tag=nx_graph.graph.get(_TAG_KEY)),
        directed=directed,
    )
    for node, data in nx_graph.nodes(data=True):
        attrs = {k: v for k, v in data.items()
                 if k != _TAG_KEY and _is_scalar(v)}
        new = graph.add_node(str(node), tag=data.get(_TAG_KEY))
        new.tuple.update(attrs)
    for source, target, data in nx_graph.edges(data=True):
        source_id, target_id = str(source), str(target)
        if graph.has_edge(source_id, target_id) and not directed:
            continue  # collapse multi-edges
        if directed and graph.edge_between(source_id, target_id) is not None:
            existing = graph.edge_between(source_id, target_id)
            if existing.source == source_id:
                continue
        attrs = {k: v for k, v in data.items()
                 if k != _TAG_KEY and _is_scalar(v)}
        edge = graph.add_edge(source_id, target_id, tag=data.get(_TAG_KEY))
        edge.tuple.update(attrs)
    return graph


def _is_scalar(value: Any) -> bool:
    return isinstance(value, (int, float, str, bool))
