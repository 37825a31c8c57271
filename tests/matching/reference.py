"""Reference implementations of the planner's per-query loops.

These are the straightforward, uncompiled forms of Algorithm 4.2
(Section 4.3), the §4.4 cost model and greedy order, and per-node
retrieval of feasible mates (Section 4.2).  ``src/repro/matching``
compiles each of them; ``test_planner_differential.py`` checks that the
compiled forms return the same spaces, orders, estimates and counters.

``find_matches`` is Algorithm 4.1 as it was before the search learned
pattern symmetry: every automorphic mapping is found by search.
``test_symmetry.py`` checks that the symmetry-aware search returns the
same bag of mappings.

``exhaustive_order`` — the optimal left-deep order by enumeration — is
only ever used to validate the greedy order, so it lives here too.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.bindings import Mapping
from repro.core.graph import Graph
from repro.core.motif import SimpleMotif
from repro.core.pattern import GroundPattern
from repro.core.predicate import conjunction
from repro.index.attribute_index import AttributeIndexSet
from repro.index.profile_index import ProfileIndex
from repro.matching import (
    GraphStatistics,
    RefinementStats,
    RetrievalStats,
    hopcroft_karp,
)
from repro.matching.basic import (
    SearchCounters,
    _back_edges,
    _compile_check,
    scan_feasible_mates,
)
from repro.matching.feasible_mates import LOCAL_STRATEGIES
from repro.matching.neighborhood import (
    motif_profile,
    neighborhood_subisomorphic,
    pattern_label,
    profile_contained,
    profile_counts,
)
from repro.runtime import ExecutionContext, ExecutionInterrupted, mapping_cost


# -- Algorithm 4.2 ---------------------------------------------------------------


def has_semi_perfect_matching(left, adjacency) -> bool:
    """Whether every left vertex can be matched, by Hopcroft–Karp alone."""
    for u in left:
        if not adjacency.get(u):
            return False
    return len(hopcroft_karp(left, adjacency)) == len(left)


def refine_search_space(
    motif: SimpleMotif,
    graph: Graph,
    space: Dict[str, Sequence[str]],
    level: Optional[int] = None,
    stats: Optional[RefinementStats] = None,
) -> Dict[str, List[str]]:
    """Algorithm 4.2 with a Φ snapshot per level and B(u, v) built by
    probing every (pattern neighbour, data neighbour) pair."""
    node_names = motif.node_names()
    if level is None:
        level = max(1, len(node_names))

    phi: Dict[str, List[str]] = {u: list(space.get(u, ())) for u in node_names}
    phi_sets: Dict[str, Set[str]] = {u: set(ids) for u, ids in phi.items()}

    pattern_neighbors: Dict[str, List[str]] = {
        u: motif.neighbors(u) for u in node_names
    }

    marked: Dict[Tuple[str, str], None] = {}
    for u in node_names:
        for v in phi[u]:
            marked[(u, v)] = None

    for _ in range(level):
        if not marked:
            break
        if stats is not None:
            stats.levels_run += 1
        snapshot: Dict[str, Set[str]] = {u: set(s) for u, s in phi_sets.items()}
        removals: List[Tuple[str, str]] = []
        for u, v in list(marked):
            if v not in phi_sets[u]:
                del marked[(u, v)]
                continue
            if stats is not None:
                stats.pairs_checked += 1
            neighbors_u = pattern_neighbors[u]
            neighbors_v = graph.all_neighbors(v)
            adjacency = {
                up: [vp for vp in neighbors_v if vp in snapshot[up]]
                for up in neighbors_u
            }
            del marked[(u, v)]
            if not has_semi_perfect_matching(neighbors_u, adjacency):
                removals.append((u, v))
        for u, v in removals:
            phi_sets[u].discard(v)
            if stats is not None:
                stats.pairs_removed += 1
        for u, v in removals:
            neighbors_u = pattern_neighbors[u]
            neighbors_v = graph.all_neighbors(v)
            for up in neighbors_u:
                for vp in neighbors_v:
                    if vp in phi_sets[up]:
                        marked[(up, vp)] = None

    return {u: [v for v in phi[u] if v in phi_sets[u]] for u in node_names}


# -- Section 4.4 -----------------------------------------------------------------


class CostModel:
    """Reduction factors re-derived from labels and statistics per call."""

    def __init__(
        self,
        motif: SimpleMotif,
        stats: Optional[GraphStatistics] = None,
        gamma_const: float = 0.1,
        directed: bool = False,
    ) -> None:
        self.motif = motif
        self.stats = stats
        self.gamma_const = gamma_const
        self.directed = directed

    def _node_label(self, name: str):
        return pattern_label(self.motif.node(name))

    def edge_probability(self, source: str, target: str) -> float:
        if self.stats is None:
            return self.gamma_const
        return self.stats.edge_probability(
            self._node_label(source), self._node_label(target), self.directed
        )

    def gamma(self, placed: Sequence[str], new_node: str) -> float:
        factor = 1.0
        placed_set = set(placed)
        for edge in self.motif.incident_edges(new_node):
            other = edge.target if edge.source == new_node else edge.source
            if other in placed_set:
                factor *= self.edge_probability(edge.source, edge.target)
        return factor


def order_cost(
    order: Sequence[str],
    sizes: Dict[str, int],
    model: CostModel,
) -> Tuple[float, float]:
    """``(Cost, final Size)`` of a left-deep plan in the given order."""
    if not order:
        return (0.0, 0.0)
    size = float(sizes[order[0]])
    total_cost = 0.0
    for i in range(1, len(order)):
        new_node = order[i]
        leaf_size = float(sizes[new_node])
        total_cost += size * leaf_size
        size = size * leaf_size * model.gamma(order[:i], new_node)
    return (total_cost, size)


def greedy_order(
    motif: SimpleMotif,
    sizes: Dict[str, int],
    model: CostModel,
) -> List[str]:
    """The greedy left-deep order, calling ``model.gamma`` per candidate."""
    names = motif.node_names()
    if len(names) <= 1:
        return list(names)

    def join_key(placed: Sequence[str], size: float, leaf: str) -> Tuple[float, float]:
        cost = size * sizes[leaf]
        new_size = size * sizes[leaf] * model.gamma(placed, leaf)
        return (new_size, cost)

    best_pair: Optional[Tuple[str, str]] = None
    best_key: Optional[Tuple[float, float]] = None
    for a, b in itertools.permutations(names, 2):
        key = join_key([a], float(sizes[a]), b)
        if best_key is None or key < best_key:
            best_key = key
            best_pair = (a, b)
    assert best_pair is not None
    order = [best_pair[0], best_pair[1]]
    size = float(sizes[best_pair[0]]) * sizes[best_pair[1]] * model.gamma(
        [best_pair[0]], best_pair[1]
    )
    remaining = [n for n in names if n not in order]
    while remaining:
        best_leaf = None
        best_key = None
        for leaf in remaining:
            key = join_key(order, size, leaf)
            if best_key is None or key < best_key:
                best_key = key
                best_leaf = leaf
        assert best_leaf is not None and best_key is not None
        order.append(best_leaf)
        remaining.remove(best_leaf)
        size = best_key[0]
    return order


def exhaustive_order(
    motif: SimpleMotif,
    sizes: Dict[str, int],
    model: CostModel,
    max_nodes: int = 9,
) -> List[str]:
    """Optimal left-deep order by enumeration (validation only)."""
    names = motif.node_names()
    if len(names) > max_nodes:
        raise ValueError(
            f"exhaustive enumeration limited to {max_nodes} nodes "
            f"(pattern has {len(names)})"
        )
    best_order: Optional[Tuple[str, ...]] = None
    best_cost = float("inf")
    for perm in itertools.permutations(names):
        cost, _ = order_cost(perm, sizes, model)
        if cost < best_cost:
            best_cost = cost
            best_order = perm
    return list(best_order) if best_order is not None else list(names)


# -- Section 4.2 -----------------------------------------------------------------


def retrieve_feasible_mates(
    pattern: GroundPattern,
    graph: Graph,
    attribute_index: Optional[AttributeIndexSet] = None,
    profile_index: Optional[ProfileIndex] = None,
    local: str = "none",
    radius: int = 1,
    stats: Optional[RetrievalStats] = None,
) -> Dict[str, List[str]]:
    """Retrieval and local pruning with one index lookup and one F_u pass
    per pattern node: F_u re-checks every candidate, exact index answer
    or not, and profiles are counted per candidate."""
    if local not in LOCAL_STRATEGIES:
        raise ValueError(f"unknown local strategy {local!r}")
    node = graph.node
    space: Dict[str, List[str]] = {}
    for name in pattern.node_names():
        motif_node = pattern.motif.node(name)
        candidate_ids: Optional[List[str]] = None
        if attribute_index is not None:
            pushed = pattern.decomposed.node_preds.get(name)
            preds = [p for p in (motif_node.predicate, pushed) if p is not None]
            candidate_ids, _ = attribute_index.candidates_for(
                motif_node.attrs, conjunction(preds)
            )
            if stats is not None and candidate_ids is not None:
                stats.method[name] = "attribute-index"
        if candidate_ids is None:
            candidate_ids = graph.node_ids()
            if stats is not None:
                stats.method[name] = "scan"
        if stats is not None:
            stats.scanned[name] = len(candidate_ids)
        fu = pattern.node_test(name)
        feasible = [node_id for node_id in candidate_ids if fu(node(node_id))]
        if stats is not None:
            stats.after_fu[name] = len(feasible)
        if local == "profile":
            # counted on the fly whether or not a profile index is given,
            # so the oracle shares no code with the holder-set pruning
            need = Counter(motif_profile(pattern.motif, name, radius)).items()
            feasible = [node_id for node_id in feasible
                        if profile_contained(need, profile_counts(
                            graph, node_id, radius))]
        elif local == "subgraph":
            feasible = [
                node_id
                for node_id in feasible
                if neighborhood_subisomorphic(
                    pattern, name, graph, node_id, radius,
                    data_subgraph=(
                        profile_index.subgraph_of(node_id)
                        if profile_index is not None
                        else None
                    ),
                )
            ]
        if stats is not None:
            stats.after_local[name] = len(feasible)
        space[name] = feasible
    return space


# -- Algorithm 4.1 ---------------------------------------------------------------


def find_matches(
    pattern: GroundPattern,
    graph: Graph,
    candidates: Optional[Dict[str, Sequence[str]]] = None,
    order: Optional[Sequence[str]] = None,
    exhaustive: bool = True,
    limit: Optional[int] = None,
    initial: Optional[Dict[str, str]] = None,
    counters: Optional[SearchCounters] = None,
    context: Optional[ExecutionContext] = None,
) -> List[Mapping]:
    """Run Algorithm 4.1 and return the feasible mappings.

    Parameters
    ----------
    candidates:
        The search space ``Phi`` (pattern node name -> candidate node ids).
        Computed by full scan when omitted.
    order:
        Search order over pattern node names (Section 4.4).  Defaults to
        declaration order.
    exhaustive:
        Return all mappings; when false, stop at the first.
    limit:
        Hard cap on the number of reported mappings (the paper terminates
        queries with more than 1000 answers); ``None`` means no cap.
    initial:
        Pre-pinned assignments (used by the neighborhood-subgraph pruning
        check, which requires ``u`` mapped to ``v``).
    counters:
        Optional :class:`SearchCounters` to fill with search statistics.
    context:
        Optional :class:`~repro.runtime.ExecutionContext`.  The search
        ticks it once per candidate extension; on deadline expiry, step
        budget exhaustion or cancellation the search unwinds and the
        mappings found so far are returned (the interruption is recorded
        on the context, so callers can report a structured outcome).
        The context's answer/memory caps also terminate the search
        early, inside the recursion.

    The order fixes which pattern nodes are mapped at every depth, so
    ``Check``'s work is planned once, before searching: per depth, the
    pattern edges back to earlier (or pinned) nodes, each with the
    direction to probe and whether its F_e can fail at all.
    """
    if candidates is None:
        candidates = scan_feasible_mates(pattern, graph)
    pins = initial or {}
    node_names = pattern.node_names()
    order = [n for n in (node_names if order is None else order)
             if n not in pins]
    missing = set(node_names) - set(order) - set(pins)
    if missing:
        raise ValueError(f"search order misses pattern nodes: {sorted(missing)}")
    if not exhaustive:
        limit = 1

    # Assignments are overwritten, never undone: depth i rewrites its
    # node and back edges before anything deeper reads them, and a
    # mapping is copied out only when every depth has just written its
    # own, so the entries (and their order) equal a fresh assignment's.
    mapping = Mapping()
    nodes, edges = mapping.nodes, mapping.edges
    used: set[str] = set()
    results: List[Mapping] = []
    check = _compile_check(pattern, graph, nodes, edges)

    # pinned nodes: all mapped first, then each checked against every pin
    for name, node_id in pins.items():
        if (not graph.has_node(node_id) or node_id in used
                or not pattern.node_matches(name, graph.node(node_id))):
            return []
        nodes[name] = node_id
        used.add(node_id)
    for name, node_id in pins.items():
        if counters is not None:
            counters.check_calls += 1
        if not check(_back_edges(pattern, name, pins, graph.directed), node_id):
            return []

    mapped = set(pins)
    steps = []
    for u in order:
        mapped.add(u)
        steps.append((u, candidates.get(u, ()),
                      _back_edges(pattern, u, mapped, graph.directed)))
    depth = len(steps)

    def search(i: int) -> bool:
        """Return True when the search should stop early."""
        if counters is not None:
            counters.partial_states += 1
        if i == depth:
            if pattern.residual_holds(mapping, graph):
                results.append(mapping.copy())
                if counters is not None:
                    counters.results += 1
                if context is not None and context.note_result(
                    memory=mapping_cost(len(nodes) + len(edges))
                ):
                    return True
                if limit is not None and len(results) >= limit:
                    return True
            return False
        u, mates, back = steps[i]
        for v in mates:  # free candidates for u
            if v in used:
                continue
            if context is not None:
                context.tick()
            if counters is not None:
                counters.candidates_tried += 1
                counters.check_calls += 1
            nodes[u] = v  # a pattern self-loop probes (v, v)
            if not check(back, v):
                continue
            used.add(v)
            if search(i + 1):
                return True
            used.discard(v)
        return False

    try:
        if context is not None:
            context.check()
        search(0)
    except ExecutionInterrupted as exc:
        if context is None:
            raise
        context.mark_interrupted(exc)
    return results
