"""Precomputed neighborhood subgraphs and profiles for a data graph.

Section 5.1: *"We index the node labels using a hashtable, and store the
neighborhood subgraphs and profiles with radius 1 as well."*  The label
hashtable is the ``label`` index of
:class:`~repro.index.attribute_index.AttributeIndexSet`; this module is
the rest: per node, the profile (always precomputed — it is cheap) and
the neighborhood subgraph (computed lazily and cached — it is big).
A profile is stored as its label -> count vector, the form the §4.2
pruning test reads; the sorted sequence is derived on demand.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..core.graph import Graph
from ..matching.neighborhood import (
    default_label,
    neighborhood_subgraph,
    profile_counts,
    sorted_labels,
)


class ProfileIndex:
    """Per-node profiles and neighborhood subgraphs."""

    def __init__(self, graph: Graph, radius: int = 1) -> None:
        self.graph = graph
        self.radius = radius
        self._subgraphs: Dict[str, Graph] = {}
        labels = {node.id: default_label(node) for node in graph.nodes()}
        self._counts: Dict[str, Dict[Any, int]] = {
            node_id: profile_counts(graph, node_id, radius, labels.__getitem__)
            for node_id in labels
        }

    def counts_of(self, node_id: str) -> Dict[Any, int]:
        """The stored profile of a node as label -> count (read-only)."""
        return self._counts[node_id]

    def profile_of(self, node_id: str) -> Tuple[Any, ...]:
        """The stored profile of a node as a sorted label sequence."""
        return sorted_labels(label for label, count in self._counts[node_id].items()
                             for _ in range(count))

    def subgraph_of(self, node_id: str) -> Graph:
        """The neighborhood subgraph of a node (cached)."""
        cached = self._subgraphs.get(node_id)
        if cached is None:
            cached = neighborhood_subgraph(self.graph, node_id, self.radius)
            self._subgraphs[node_id] = cached
        return cached

    def __repr__(self) -> str:
        return (
            f"ProfileIndex(radius={self.radius}, "
            f"nodes={len(self._counts)})"
        )
