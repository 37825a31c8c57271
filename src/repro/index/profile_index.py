"""Precomputed neighborhood subgraphs and profiles for a data graph.

Section 5.1: *"We index the node labels using a hashtable, and store the
neighborhood subgraphs and profiles with radius 1 as well."*  This module
is that store: per node, the profile (always precomputed — it is cheap)
and the neighborhood subgraph (computed lazily and cached — it is big).
A profile is stored as its label -> count vector, the form the §4.2
pruning test reads; the sorted sequence is derived on demand.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..core.graph import Graph
from ..matching.neighborhood import (
    LabelFn,
    default_label,
    neighborhood_subgraph,
    profile_counts,
    sorted_labels,
)
from .hash_index import HashIndex


class ProfileIndex:
    """Per-node profiles, neighborhood subgraphs and a label hash index."""

    def __init__(
        self,
        graph: Graph,
        radius: int = 1,
        label_fn: LabelFn = default_label,
        eager_subgraphs: bool = False,
    ) -> None:
        self.graph = graph
        self.radius = radius
        self.label_fn = label_fn
        self.label_index = HashIndex()
        self._subgraphs: Dict[str, Graph] = {}
        labels: Dict[str, Any] = {}
        for node in graph.nodes():
            labels[node.id] = label = label_fn(node)
            self.label_index.insert(label, node.id)
            if eager_subgraphs:
                self._subgraphs[node.id] = neighborhood_subgraph(
                    graph, node.id, radius
                )
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

    def nodes_with_label(self, label: Any) -> list:
        """Node ids carrying the given label (hashtable lookup)."""
        return self.label_index.get(label)

    def __repr__(self) -> str:
        return (
            f"ProfileIndex(radius={self.radius}, "
            f"nodes={len(self._counts)})"
        )
