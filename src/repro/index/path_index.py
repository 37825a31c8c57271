"""Label-path features for collections of small graphs.

Section 4 splits graph databases into two categories.  This module covers
the first — *"a large collection of small graphs, e.g., chemical
compounds"* — where *"graph indexing plays a similar role for graph
databases as B-trees for relational databases: only a small number of
graphs need to be accessed"*.

The features follow the GraphGrep recipe the paper cites [34]: every
label path up to :data:`MAX_PATH_LENGTH` edges is a feature; a graph can
contain the pattern only if it contains at least as many occurrences of
every pattern feature.  Selection is then **filter + verify**:
:func:`repro.matching.planner.match_members` skips a small member that
fails the containment test and searches the survivors.  The member's
features live on its index-less matcher and are recounted when its
:attr:`Graph.version` moves, so a write recounts one member.

The filter is sound (an embedding maps each pattern path to a distinct
data path with the same labels, so counts can only grow) and approximate
(survivors may still fail verification).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, List, NamedTuple, Optional, Tuple

from ..core.graph import Graph
from ..core.pattern import GroundPattern
from ..matching.neighborhood import LABEL_ATTR, default_label

PathFeature = Tuple[Any, ...]

#: the longest label path, in edges, the filter counts
MAX_PATH_LENGTH = 3

#: the most traversals (by :func:`path_walk_bound`) the filter spends on
#: one graph version, about 2 ms; a denser graph's label paths are not
#: counted, and the filter passes it on its label counts alone.  A
#: molecule has at most about 300 walks and counts in 0.3 ms; a 23-node
#: graph of edge density 0.5 has about 35,000 and took 84 ms, far more
#: than a search on it, while it rarely lacks a short path.
MAX_PATH_WALKS = 1024


def _seq_key(sequence: PathFeature) -> Tuple:
    return tuple((type(x).__name__, str(x)) for x in sequence)


def _canonical(sequence: PathFeature, directed: bool) -> PathFeature:
    """Undirected paths are read in either direction: pick one."""
    if directed:
        return sequence
    return min(sequence, tuple(reversed(sequence)), key=_seq_key)


def _enumerate_paths(
    node_ids: List,
    neighbors_fn,
    label_of,
    max_length: int,
    directed: bool,
) -> Counter:
    """Count simple label paths with up to *max_length* edges.

    Undirected paths are enumerated once: a traversal is counted only
    when its first node comes before its last in *node_ids* (each simple
    path of length >= 1 has two distinct end points, so exactly one of
    its two traversals qualifies; positions, unlike the ids themselves,
    always compare).  Directed paths count every traversal.
    """
    features: Counter = Counter()
    position = {node_id: index for index, node_id in enumerate(node_ids)}

    def extend(path: List) -> None:
        if len(path) == 1:
            features[(label_of(path[0]),)] += 1
        elif directed or position[path[0]] < position[path[-1]]:
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


def enumerate_label_paths(graph: Graph,
                          max_length: int = MAX_PATH_LENGTH) -> Counter:
    """Count the label paths of a data graph (its filter features)."""
    labels = {node.id: default_label(node) for node in graph.nodes()}
    return _enumerate_paths(
        graph.node_ids(),
        graph.neighbors,
        labels.__getitem__,
        max_length,
        graph.directed,
    )


def path_walk_bound(graph: Graph,
                    max_length: int = MAX_PATH_LENGTH) -> int:
    """The walks of up to *max_length* edges in *graph* (following edge
    direction), an upper bound on the traversals
    :func:`enumerate_label_paths` makes; counted in ``O(max_length * |E|)``."""
    node_ids = graph.node_ids()
    neighbors = {node_id: graph.neighbors(node_id) for node_id in node_ids}
    walks = dict.fromkeys(node_ids, 1)  # of 0 edges, from each node
    total = len(walks)
    for _ in range(max_length):
        walks = {node_id: sum(walks[n] for n in neighbors[node_id])
                 for node_id in node_ids}
        total += sum(walks.values())
    return total


def pattern_features(
    pattern: GroundPattern,
    max_length: int = MAX_PATH_LENGTH,
    directed: bool = False,
) -> Counter:
    """Label-path features a pattern *requires* of any containing graph.

    Only paths whose nodes all carry a declarative label constraint
    contribute (an unconstrained node matches anything and cannot prune).
    Against a directed graph a path follows the pattern's edges from
    source to target, as :meth:`Graph.neighbors` does in the data, and
    reaches each neighbour once, however many edges join them.
    """
    motif = pattern.motif
    constrained = {
        name: motif.node(name).attrs[LABEL_ATTR]
        for name in motif.node_names()
        if motif.node(name).attrs.get(LABEL_ATTR) is not None
    }

    def neighbors(name: str) -> List[str]:
        if directed:
            # each target once: parallel pattern edges map to one data edge
            return list(dict.fromkeys(
                edge.target for edge in motif.incident_edges(name)
                if edge.source == name and edge.target != name
                and edge.target in constrained))
        return [n for n in motif.neighbors(name) if n in constrained]

    return _enumerate_paths(
        list(constrained),
        neighbors,
        constrained.__getitem__,
        max_length,
        directed,
    )


class FeatureNeeds(NamedTuple):
    """What a ground pattern requires of a graph that contains it, split
    into the two tiers of the containment test."""

    #: ``(label, count)``: checked first, against label counts
    labels: Tuple[Tuple[Any, int], ...]
    #: ``(label path, count)`` of paths with at least one edge: checked
    #: only for a graph whose labels pass
    paths: Tuple[Tuple[PathFeature, int], ...]


def feature_needs(pattern: GroundPattern,
                  directed: bool) -> Optional[FeatureNeeds]:
    """The pattern's :class:`FeatureNeeds` against graphs of the given
    directedness; ``None`` when it constrains no label (every graph may
    contain it) or a label constraint cannot be counted (unhashable)."""
    try:
        required = pattern_features(pattern, MAX_PATH_LENGTH, directed)
    except TypeError:
        return None
    if not required:
        return None
    return FeatureNeeds(
        tuple((feature[0], count) for feature, count in required.items()
              if len(feature) == 1),
        tuple((feature, count) for feature, count in required.items()
              if len(feature) > 1))
