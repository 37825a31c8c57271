"""Test helper: whole-graph isomorphism on top of the pattern matcher.

A monomorphism between equal-size graphs with equal edge counts is an
isomorphism, so Algorithm 4.1 doubles as an isomorphism tester once the
pattern constrains every compared attribute.  Only the tests use it
(``tests/matching/test_isomorphism.py`` checks it against networkx).
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence

from repro.core.bindings import Mapping
from repro.core.graph import Graph
from repro.core.motif import SimpleMotif
from repro.core.pattern import GroundPattern
from repro.matching.basic import find_matches


def isomorphism_mapping(
    left: Graph,
    right: Graph,
    attrs: Sequence[str] = ("label",),
) -> Optional[Mapping]:
    """An isomorphism left → right respecting *attrs*, or ``None``.

    Cheap invariants (sizes, degree sequences, attribute multisets) are
    checked first; only then does the backtracking search run.
    """
    if left.directed != right.directed:
        return None
    if left.num_nodes() != right.num_nodes():
        return None
    if left.num_edges() != right.num_edges():
        return None
    if sorted(left.degree(n) for n in left.node_ids()) != sorted(
        right.degree(n) for n in right.node_ids()
    ):
        return None
    for attr in attrs:
        left_values = Counter(node.get(attr) for node in left.nodes())
        right_values = Counter(node.get(attr) for node in right.nodes())
        if left_values != right_values:
            return None
    pattern = GroundPattern(SimpleMotif.from_graph(left, constraint_attrs=attrs))
    matches = find_matches(pattern, right, exhaustive=False)
    if not matches:
        return None
    # equal node counts make the injective mapping bijective; equal edge
    # counts make the edge mapping surjective, hence an isomorphism
    return matches[0]


def isomorphic(
    left: Graph,
    right: Graph,
    attrs: Sequence[str] = ("label",),
) -> bool:
    """Whether the graphs are isomorphic respecting *attrs*."""
    return isomorphism_mapping(left, right, attrs) is not None


def deduplicate_isomorphic(graphs, attrs: Sequence[str] = ("label",)):
    """Keep one representative per isomorphism class (first occurrence)."""
    representatives = []
    for graph in graphs:
        if not any(isomorphic(graph, seen, attrs) for seen in representatives):
            representatives.append(graph)
    return representatives
