"""Path-feature index for collections of small graphs.

Section 4 splits graph databases into two categories.  This module covers
the first — *"a large collection of small graphs, e.g., chemical
compounds"* — where *"graph indexing plays a similar role for graph
databases as B-trees for relational databases: only a small number of
graphs need to be accessed"*.

The index follows the GraphGrep recipe the paper cites [34]: every label
path up to a fixed length is a feature; a collection graph can contain
the pattern only if it contains at least as many occurrences of every
pattern feature.  Selection then becomes **filter + verify**: the index
prunes the collection, the Section 4 matcher verifies the survivors.

The filter is sound (an embedding maps each pattern path to a distinct
data path with the same labels, so counts can only grow) and approximate
(survivors may still fail verification).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

from ..core.collection import GraphCollection
from ..core.graph import Graph
from ..core.pattern import GroundPattern
from ..matching.neighborhood import LABEL_ATTR, default_label

PathFeature = Tuple[Any, ...]


def _seq_key(sequence: PathFeature) -> Tuple:
    return tuple((type(x).__name__, str(x)) for x in sequence)


def _canonical(sequence: PathFeature, directed: bool) -> PathFeature:
    """Undirected paths are read in either direction: pick one."""
    if directed:
        return sequence
    return min(sequence, tuple(reversed(sequence)), key=_seq_key)


def _enumerate_paths(
    node_ids,
    neighbors_fn,
    label_of,
    max_length: int,
    directed: bool,
) -> Counter:
    """Count simple label paths with up to *max_length* edges.

    Undirected paths are enumerated once: a traversal is counted only
    when its first node id is smaller than its last (each simple path of
    length >= 1 has two distinct end points, so exactly one of its two
    traversals qualifies).  Directed paths count every traversal.
    """
    features: Counter = Counter()

    def extend(path: List) -> None:
        if len(path) == 1:
            features[(label_of(path[0]),)] += 1
        elif directed or path[0] < path[-1]:
            sequence = tuple(label_of(n) for n in path)
            features[_canonical(sequence, directed)] += 1
        if len(path) > max_length:
            return
        for neighbor in neighbors_fn(path[-1]):
            if neighbor not in path:
                path.append(neighbor)
                extend(path)
                path.pop()

    for node_id in node_ids:
        extend([node_id])
    return features


def enumerate_label_paths(graph: Graph, max_length: int) -> Counter:
    """Count the label paths of a data graph (the index features)."""
    labels = {node.id: default_label(node) for node in graph.nodes()}
    return _enumerate_paths(
        graph.node_ids(),
        graph.neighbors,
        labels.__getitem__,
        max_length,
        graph.directed,
    )


def pattern_features(
    pattern: GroundPattern,
    max_length: int,
    directed: bool = False,
) -> Counter:
    """Label-path features a pattern *requires* of any containing graph.

    Only paths whose nodes all carry a declarative label constraint
    contribute (an unconstrained node matches anything and cannot prune).
    """
    motif = pattern.motif
    constrained = {
        name: motif.node(name).attrs[LABEL_ATTR]
        for name in motif.node_names()
        if LABEL_ATTR in motif.node(name).attrs
    }

    def neighbors(name: str) -> List[str]:
        return [n for n in motif.neighbors(name) if n in constrained]

    return _enumerate_paths(
        list(constrained),
        neighbors,
        constrained.__getitem__,
        max_length,
        directed,
    )


class PathIndexStats:
    """Filter effectiveness counters."""

    def __init__(self) -> None:
        self.collection_size = 0
        self.candidates = 0
        self.verified = 0

    @property
    def filter_ratio(self) -> float:
        """Fraction of the collection surviving the filter."""
        if self.collection_size == 0:
            return 0.0
        return self.candidates / self.collection_size

    def __repr__(self) -> str:
        return (
            f"PathIndexStats({self.candidates}/{self.collection_size} "
            f"candidates, {self.verified} verified)"
        )


class PathIndex:
    """A GraphGrep-style filter index over a collection of small graphs."""

    def __init__(
        self,
        collection: GraphCollection,
        max_length: int = 3,
    ) -> None:
        self.collection = collection
        self.max_length = max_length
        self._directed = any(g.directed for g in collection)
        #: versions at build time: the holder rebuilds once they differ
        self.member_versions = [graph.version for graph in collection]
        self._features: List[Counter] = [
            enumerate_label_paths(graph, max_length)
            for graph in collection
        ]
        # inverted index: feature -> graph positions containing it
        self._inverted: Dict[PathFeature, List[int]] = {}
        for position, counter in enumerate(self._features):
            for feature in counter:
                self._inverted.setdefault(feature, []).append(position)

    def candidate_positions(
        self,
        pattern: GroundPattern,
        stats: Optional[PathIndexStats] = None,
    ) -> List[int]:
        """Collection positions that may contain the pattern."""
        required = pattern_features(pattern, self.max_length, self._directed)
        if stats is not None:
            stats.collection_size = len(self.collection)
        if not required:
            candidates = list(range(len(self.collection)))
        else:
            # start from the rarest feature's posting list
            rarest = min(
                required, key=lambda f: len(self._inverted.get(f, ()))
            )
            candidates = [
                position
                for position in self._inverted.get(rarest, [])
                if all(
                    self._features[position][feature] >= count
                    for feature, count in required.items()
                )
            ]
        if stats is not None:
            stats.candidates = len(candidates)
        return candidates

    def select(
        self,
        pattern: GroundPattern,
        exhaustive: bool = True,
        stats: Optional[PathIndexStats] = None,
    ) -> GraphCollection:
        """Filter-and-verify selection over the collection."""
        from ..core.algebra import select as verify_select

        positions = self.candidate_positions(pattern, stats)
        survivors = GraphCollection([self.collection[p] for p in positions])
        result = verify_select(survivors, pattern, exhaustive=exhaustive)
        if stats is not None:
            stats.verified = len(result)
        return result

    def __repr__(self) -> str:
        return (
            f"PathIndex(graphs={len(self.collection)}, "
            f"max_length={self.max_length}, "
            f"features={len(self._inverted)})"
        )
