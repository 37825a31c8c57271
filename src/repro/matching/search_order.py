"""Search-order optimization (Section 4.4).

A search order is a left-deep join plan over the pattern nodes.  Per
Definitions 4.11–4.13::

    Size(i) = Size(i.left) * Size(i.right) * gamma(i)
    Cost(i) = Size(i.left) * Size(i.right)
    Cost(plan) = sum_i Cost(i)

where the reduction factor ``gamma(i)`` is either a constant or the product
of the probabilities of the pattern edges the join closes.  The optimizer
follows the paper: left-deep plans only, chosen greedily (the join that
minimizes estimated cost, with estimated result size as tie-break); an
exhaustive enumerator is provided for validation on small patterns.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.motif import SimpleMotif
from .neighborhood import pattern_label
from .statistics import GraphStatistics


class CostModel:
    """Estimates reduction factors for joins over pattern nodes."""

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
        """P(e(u, v)) for one pattern edge, per the configured mode."""
        if self.stats is None:
            return self.gamma_const
        return self.stats.edge_probability(
            self._node_label(source), self._node_label(target), self.directed
        )

    def gamma(self, placed: Sequence[str], new_node: str) -> float:
        """Reduction factor of joining *new_node* onto the placed set.

        The product of probabilities of the pattern edges between the new
        node and already-placed nodes (Definition 4.11); 1.0 when the join
        closes no edge (a Cartesian step).
        """
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
        total_cost += size * leaf_size  # Cost(i) = Size(left) * Size(right)
        size = size * leaf_size * model.gamma(order[:i], new_node)
    return (total_cost, size)


def greedy_order(
    motif: SimpleMotif,
    sizes: Dict[str, int],
    model: CostModel,
) -> List[str]:
    """The paper's greedy left-deep order.

    The first join picks the leaf *pair* with the best estimate; every
    later step greedily extends the plan by one leaf.  The primary
    objective is the estimated *result size* of the join (which folds in
    the reduction factor gamma and therefore strongly prefers connected
    extensions — a disconnected leaf keeps gamma = 1 and multiplies the
    intermediate size), with the join cost as tie-break.  On the paper's
    running example this picks exactly the (A ⋈ C) ⋈ B plan of
    Section 4.4.
    """
    names = motif.node_names()
    if len(names) <= 1:
        return list(names)

    def join_key(placed: Sequence[str], size: float, leaf: str) -> Tuple[float, float]:
        cost = size * sizes[leaf]
        new_size = size * sizes[leaf] * model.gamma(placed, leaf)
        return (new_size, cost)

    # first join: best pair
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
    """Optimal left-deep order by enumeration (validation / ablation only)."""
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


def connected_order(motif: SimpleMotif, sizes: Dict[str, int]) -> List[str]:
    """A baseline order: smallest candidate set first, then BFS-connected.

    Used as the "without optimized order" arm in the experiments — it uses
    no cost model, only connectivity, mirroring a naive implementation.
    """
    names = motif.node_names()
    if not names:
        return []
    order: List[str] = []
    seen: set = set()
    remaining = set(names)
    while remaining:
        # start a new component at the declaration-order first node
        start = next(n for n in names if n in remaining)
        order.append(start)
        seen.add(start)
        remaining.discard(start)
        frontier = [n for n in motif.neighbors(start) if n in remaining]
        while frontier:
            nxt = frontier.pop(0)
            if nxt not in remaining:
                continue
            order.append(nxt)
            seen.add(nxt)
            remaining.discard(nxt)
            frontier.extend(n for n in motif.neighbors(nxt) if n in remaining)
    return order
