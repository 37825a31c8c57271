"""Local pruning and retrieval of feasible mates (Section 4.2).

Retrieval proceeds in two stages:

1. **Retrieve** candidates for each pattern node — by the attribute
   index (label hashtable, predicate pushdown) or by full scan — then
   check F_u on them unless the index answer is exact (Definition 4.8).
2. **Prune locally** with neighborhood information: either the cheap
   profile test (an intersection of per-label holder sets) or the exact
   neighborhood-subgraph sub-isomorphism test (Definition 4.10).

Everything that depends only on the pattern node — its compiled F_u,
its profile as ``(label, count)`` pairs — is computed once per pattern,
not once per candidate.  Pattern nodes with the same F_u and no
predicate (:meth:`~repro.core.pattern.GroundPattern.shared_node_tests`)
share one index lookup and one F_u pass, and the nodes of one orbit of
the pattern's automorphism group (:mod:`repro.matching.symmetry`) share
one local pruning pass.

Soundness: both pruning tests are necessary conditions of a full match,
so pruning never loses answers (verified by property tests).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.graph import Graph
from ..core.pattern import GroundPattern
from ..core.predicate import conjunction
from ..index.attribute_index import AttributeIndexSet
from ..index.profile_index import ProfileIndex
from .neighborhood import (
    neighborhood_subisomorphic,
    profile_contained,
    profile_counts,
)

#: Local pruning strategies, weakest to strongest.
LOCAL_STRATEGIES = ("none", "profile", "subgraph")


class RetrievalStats:
    """How candidates were obtained and how many each stage kept."""

    def __init__(self) -> None:
        self.scanned: Dict[str, int] = {}
        self.after_fu: Dict[str, int] = {}
        self.after_local: Dict[str, int] = {}
        #: per pattern node: "attribute-index" | "scan"
        self.method: Dict[str, str] = {}

    def __repr__(self) -> str:
        return (
            f"RetrievalStats(after_fu={self.after_fu}, "
            f"after_local={self.after_local})"
        )


def retrieve_feasible_mates(
    pattern: GroundPattern,
    graph: Graph,
    attribute_index: Optional[AttributeIndexSet] = None,
    profile_index: Optional[ProfileIndex] = None,
    local: str = "none",
    radius: int = 1,
    stats: Optional[RetrievalStats] = None,
) -> Dict[str, List[str]]:
    """The search space ``Phi`` after retrieval and local pruning.

    Parameters
    ----------
    attribute_index:
        Optional per-attribute indexes; used to avoid full scans when the
        pattern node carries indexable constraints.
    profile_index:
        Precomputed profiles/neighborhood subgraphs; required for
        ``local != 'none'`` unless computed on the fly.
    local:
        One of :data:`LOCAL_STRATEGIES`.
    radius:
        Neighborhood radius (must equal the profile index's radius when
        one is supplied).
    """
    if local not in LOCAL_STRATEGIES:
        raise ValueError(f"unknown local strategy {local!r}")
    if profile_index is not None and profile_index.radius != radius:
        raise ValueError(
            f"profile index radius {profile_index.radius} != requested {radius}"
        )
    shared_tests = pattern.shared_node_tests()
    # automorphic nodes have the same F_u survivors and neighbourhoods
    # (up to the automorphism), so they keep the same candidates
    orbit_of = (pattern.symmetry(graph.directed).orbit_of
                if local != "none" else None)
    # group representative -> (method, scanned, F_u survivors)
    retrieved: Dict[str, Tuple[str, int, List[str]]] = {}
    space: Dict[str, List[str]] = {}
    for name in pattern.node_names():
        shared = retrieved.get(shared_tests[name])
        if shared is None:
            shared = retrieved[name] = _retrieve(
                pattern, name, graph, attribute_index)
            method, scanned, feasible = shared
        else:  # the same F_u as an earlier node: reuse its survivors
            method, scanned, feasible = shared[0], shared[1], list(shared[2])
        if stats is not None:
            stats.method[name] = method
            stats.scanned[name] = scanned
            stats.after_fu[name] = len(feasible)
        # local pruning, once per orbit
        first = name if orbit_of is None else orbit_of[name]
        if first != name:
            feasible = list(space[first])
        elif local == "profile":
            need = pattern.profile_needs(radius)[name]
            if profile_index is None:  # the unindexed rung counts here
                feasible = [node_id for node_id in feasible if profile_contained(
                    need, profile_counts(graph, node_id, radius))]
            elif need:
                common = profile_index.containing(need)
                feasible = [node_id for node_id in feasible if node_id in common]
        elif local == "subgraph":
            subgraph_of = (profile_index.subgraph_of if profile_index is not None
                           else lambda node_id: None)
            feasible = [node_id for node_id in feasible if neighborhood_subisomorphic(
                pattern, name, graph, node_id, radius, subgraph_of(node_id))]
        if stats is not None:
            stats.after_local[name] = len(feasible)
        space[name] = feasible
    return space


def _retrieve(
    pattern: GroundPattern,
    name: str,
    graph: Graph,
    attribute_index: Optional[AttributeIndexSet],
) -> Tuple[str, int, List[str]]:
    """``(method, candidates scanned, F_u survivors)`` of one pattern node:
    the attribute index when it covers a constraint, else a scan, then
    the exact F_u check (Definition 4.8) unless the answer is exact."""
    motif_node = pattern.motif.node(name)
    candidate_ids: Optional[List[str]] = None
    exact = False
    if attribute_index is not None:
        pushed = pattern.decomposed.node_preds.get(name)
        preds = [p for p in (motif_node.predicate, pushed) if p is not None]
        candidate_ids, exact = attribute_index.candidates_for(
            motif_node.attrs, conjunction(preds))
    method = "attribute-index"
    if candidate_ids is None:
        candidate_ids, method = graph.node_ids(), "scan"
    elif exact and motif_node.tag is None:  # F_u would keep them all
        return method, len(candidate_ids), candidate_ids
    fu, node = pattern.node_test(name), graph.node
    return (method, len(candidate_ids),
            [node_id for node_id in candidate_ids if fu(node(node_id))])
