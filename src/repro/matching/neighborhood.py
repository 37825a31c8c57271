"""Neighborhood subgraphs and profiles (Section 4.2).

Definition 4.10: the neighborhood subgraph of node ``v`` with radius ``r``
consists of all nodes within ``r`` hops of ``v`` and all edges between
them.  Node ``v`` is a feasible mate of pattern node ``u`` only if the
neighborhood subgraph of ``u`` is sub-isomorphic to that of ``v`` with
``u`` mapped to ``v``.

Profiles are the light-weight alternative: the lexicographically sorted
sequence of node labels in the neighborhood subgraph.  The pruning test is
then multiset containment ("a profile is a subsequence of the other"),
which is far cheaper than a subgraph-isomorphism test.  It is evaluated
as count dominance — every label the pattern needs occurs at least as
often around the candidate — the same relation without sorting:
:func:`profile_contained` per candidate count vector
(:func:`profile_counts`), or, with a
:class:`~repro.index.profile_index.ProfileIndex`, as one intersection
of per-label holder sets.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..core.graph import Graph
from ..core.motif import MotifNode, SimpleMotif
from ..core.pattern import GroundPattern

#: The attribute that carries a node's label, on data and pattern side.
LABEL_ATTR = "label"


def default_label(node: Any) -> Any:
    """The conventional label: the ``label`` attribute, else the tag."""
    label = node.get(LABEL_ATTR) if hasattr(node, "get") else None
    if label is None and getattr(node, "tag", None) is not None:
        return node.tag
    return label


def pattern_label(node: MotifNode) -> Any:
    """The label a pattern node requires, or ``None`` when it requires
    none.  Only a declared ``label`` constraint counts: a tag-only
    pattern node also matches data nodes whose :func:`default_label` is
    their ``label`` attribute, so it pins no label."""
    return node.attrs.get(LABEL_ATTR)


def nodes_within_radius(graph: Graph, center: str, radius: int) -> List[str]:
    """Node ids within *radius* hops of *center* (BFS, includes center)."""
    seen = {center}
    frontier = deque([(center, 0)])
    out = [center]
    while frontier:
        node_id, dist = frontier.popleft()
        if dist == radius:
            continue
        for neighbor in graph.all_neighbors(node_id):
            if neighbor not in seen:
                seen.add(neighbor)
                out.append(neighbor)
                frontier.append((neighbor, dist + 1))
    return out


def neighborhood_subgraph(graph: Graph, center: str, radius: int) -> Graph:
    """The induced neighborhood subgraph of Definition 4.10."""
    return graph.induced_subgraph(nodes_within_radius(graph, center, radius))


def profile(graph: Graph, center: str, radius: int) -> Tuple[Any, ...]:
    """The profile of a node: sorted labels of its neighborhood subgraph."""
    return sorted_labels(
        default_label(graph.node(node_id))
        for node_id in nodes_within_radius(graph, center, radius)
    )


def sorted_labels(labels: Iterable[Any]) -> Tuple[Any, ...]:
    """Labels in profile order: labels may mix None/str/int, so they sort
    stably by type name, then by their string form."""
    return tuple(sorted(labels, key=lambda label: (type(label).__name__,
                                                   str(label))))


def profile_counts(graph: Graph, center: str, radius: int) -> Dict[Any, int]:
    """The profile of a node as a count vector: label -> occurrences."""
    return Counter(default_label(graph.node(node_id))
                   for node_id in nodes_within_radius(graph, center, radius))


def profile_contained(
    need: Iterable[Tuple[Any, int]],
    have: Mapping[Any, int],
) -> bool:
    """Multiset containment as count dominance: every ``(label, count)``
    the pattern needs (its profile counted once per pattern node) is
    covered by the data node's count vector."""
    for label, count in need:
        if have.get(label, 0) < count:
            return False
    return True


# --------------------------------------------------------------------------
# Pattern-side neighborhoods
# --------------------------------------------------------------------------


def motif_nodes_within_radius(
    motif: SimpleMotif, center: str, radius: int
) -> List[str]:
    """BFS over motif structure (pattern-side counterpart)."""
    seen = {center}
    frontier = deque([(center, 0)])
    out = [center]
    while frontier:
        name, dist = frontier.popleft()
        if dist == radius:
            continue
        for neighbor in motif.neighbors(name):
            if neighbor not in seen:
                seen.add(neighbor)
                out.append(neighbor)
                frontier.append((neighbor, dist + 1))
    return out


def motif_profile(
    motif: SimpleMotif,
    center: str,
    radius: int,
) -> Tuple[Any, ...]:
    """Pattern-node profile: sorted required labels within the radius.

    Only nodes that *declare* a label constraint contribute; unconstrained
    pattern nodes impose nothing (they can match any label), keeping the
    pruning test sound.
    """
    labels = []
    for name in motif_nodes_within_radius(motif, center, radius):
        node = motif.node(name)
        if LABEL_ATTR in node.attrs:
            labels.append(pattern_label(node))
    return sorted_labels(labels)


def motif_neighborhood(
    pattern: GroundPattern, center: str, radius: int
) -> GroundPattern:
    """The pattern restricted to the neighborhood of one of its nodes."""
    keep = set(motif_nodes_within_radius(pattern.motif, center, radius))
    sub = SimpleMotif()
    for name in pattern.motif.node_names():
        if name in keep:
            node = pattern.motif.node(name)
            sub.add_node(node.name, tag=node.tag, attrs=node.attrs,
                         predicate=node.predicate)
    for edge in pattern.motif.edges():
        if edge.source in keep and edge.target in keep:
            sub.add_edge(edge.source, edge.target, name=edge.name,
                         tag=edge.tag, attrs=edge.attrs, predicate=edge.predicate)
    return GroundPattern(sub, predicate=None, name=None)


def neighborhood_subisomorphic(
    pattern: GroundPattern,
    center: str,
    graph: Graph,
    candidate: str,
    radius: int,
    data_subgraph: Optional[Graph] = None,
) -> bool:
    """The exact local-pruning test of Section 4.2.

    Checks whether the neighborhood subgraph of pattern node *center* is
    sub-isomorphic to the neighborhood subgraph of data node *candidate*,
    with *center* mapped to *candidate*.  A precomputed *data_subgraph*
    (from a :class:`~repro.index.profile_index.ProfileIndex`) skips the
    extraction.
    """
    from .basic import find_matches  # local import avoids a cycle

    sub_pattern = motif_neighborhood(pattern, center, radius)
    sub_graph = (
        data_subgraph
        if data_subgraph is not None
        else neighborhood_subgraph(graph, candidate, radius)
    )
    matches = find_matches(
        sub_pattern,
        sub_graph,
        initial={center: candidate},
        exhaustive=False,
    )
    return bool(matches)
