"""Precomputed neighborhood subgraphs and profiles for a data graph.

Section 5.1: *"We index the node labels using a hashtable, and store the
neighborhood subgraphs and profiles with radius 1 as well."*  The label
hashtable is the ``label`` index of
:class:`~repro.index.attribute_index.AttributeIndexSet`; this module is
the rest: the profiles (always precomputed — they are cheap) and the
neighborhood subgraphs (computed lazily and cached — they are big).

Profiles are stored by label, the form the §4.2 pruning test reads:
label ℓ -> {node: occurrences of ℓ within the radius}, filled in one
ball walk per node.  Its keys are S(ℓ, 1); S(ℓ, k) for k ≥ 2 is built
on first use and kept until a new graph version rebuilds the index.
"""

from __future__ import annotations

from collections import defaultdict
from functools import reduce
from operator import and_
from typing import AbstractSet, Any, Dict, Iterable, Tuple

from ..core.graph import Graph
from ..matching.neighborhood import default_label, neighborhood_subgraph


class ProfileIndex:
    """Per-label profile holder sets and per-node neighborhood subgraphs."""

    def __init__(self, graph: Graph, radius: int = 1) -> None:
        self.graph = graph
        self.radius = radius
        self._subgraphs: Dict[str, Graph] = {}
        labels = {node.id: default_label(node) for node in graph.nodes()}
        neighbor_set = graph.neighbor_set
        #: label -> node id -> occurrences of the label within the radius
        self._holders: Dict[Any, Dict[str, int]] = defaultdict(dict)
        for center in labels:
            ball = {center}
            for _ in range(radius):
                ball = ball.union(*map(neighbor_set, ball))
            for label in map(labels.__getitem__, ball):
                holders = self._holders[label]
                holders[center] = holders.get(center, 0) + 1
        #: (label, k >= 2) -> S(label, k), built on first use
        self._at_least: Dict[Tuple[Any, int], AbstractSet[str]] = {}

    def holders(self, label: Any, count: int) -> AbstractSet[str]:
        """S(label, count): the nodes with at least *count* nodes
        labelled *label* within the radius."""
        holders = self._holders.get(label, {})
        if count <= 1:
            return holders.keys()
        if (label, count) not in self._at_least:  # a racing build stores an equal set
            self._at_least[label, count] = frozenset(
                node_id for node_id, held in holders.items() if held >= count)
        return self._at_least[label, count]

    def containing(self, need: Iterable[Tuple[Any, int]]) -> AbstractSet[str]:
        """The nodes whose profile holds every ``(label, count)`` of a
        non-empty *need*: S(ℓ₁, c₁) ∩ S(ℓ₂, c₂) ∩ …, smallest set first."""
        return reduce(and_, sorted(
            (self.holders(label, count) for label, count in need), key=len))

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
            f"labels={len(self._holders)})"
        )
