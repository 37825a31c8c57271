"""Search-order optimization (Section 4.4).

A search order is a left-deep join plan over the pattern nodes.  Per
Definitions 4.11–4.13::

    Size(i) = Size(i.left) * Size(i.right) * gamma(i)
    Cost(i) = Size(i.left) * Size(i.right)
    Cost(plan) = sum_i Cost(i)

where the reduction factor ``gamma(i)`` is either a constant or the product
of the probabilities of the pattern edges the join closes.  The optimizer
follows the paper: left-deep plans only, chosen greedily (the join that
minimizes estimated result size, with estimated cost as tie-break).
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from ..core.motif import SimpleMotif
from .neighborhood import pattern_label
from .statistics import GraphStatistics


class CostModel:
    """Estimates reduction factors for joins over pattern nodes.

    Each pattern node's closing edges are derived once per model, as
    ``(other end, P(e))`` in incident-edge order (:attr:`closing`);
    :meth:`gamma`, :func:`order_cost` and :func:`greedy_order` all read
    that one table.
    """

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

    @cached_property
    def closing(self) -> Dict[str, List[Tuple[str, float]]]:
        """Pattern node -> ``(other end, P(e))`` of each incident edge, in
        incident-edge order; derived on first use."""
        probability = {edge.name: self.edge_probability(edge.source, edge.target)
                       for edge in self.motif.edges()}
        return {
            name: [(edge.target if edge.source == name else edge.source,
                    probability[edge.name])
                   for edge in self.motif.incident_edges(name)]
            for name in self.motif.node_names()
        }

    def edge_probability(self, source: str, target: str) -> float:
        """P(e(u, v)) for one pattern edge, per the configured mode."""
        if self.stats is None:
            return self.gamma_const
        return self.stats.edge_probability(
            pattern_label(self.motif.node(source)),
            pattern_label(self.motif.node(target)), self.directed
        )

    def gamma(self, placed: Collection[str], new_node: str) -> float:
        """Reduction factor of joining *new_node* onto the placed set.

        The product of probabilities of the pattern edges between the new
        node and already-placed nodes (Definition 4.11); 1.0 when the join
        closes no edge (a Cartesian step).  Pass *placed* as a set when
        calling in a loop.
        """
        factor = 1.0
        for other, probability in self.closing[new_node]:
            if other in placed:
                factor *= probability
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
    placed = {order[0]}
    for new_node in order[1:]:
        leaf_size = float(sizes[new_node])
        total_cost += size * leaf_size  # Cost(i) = Size(left) * Size(right)
        size = size * leaf_size * model.gamma(placed, new_node)
        placed.add(new_node)
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
    # node -> {neighbour: gamma({neighbour}, node)}, multiplied in the
    # node's incident-edge order exactly as CostModel.gamma does
    pair_gamma: Dict[str, Dict[str, float]] = {}
    for name in names:
        factors = pair_gamma[name] = {}
        for other, probability in model.closing[name]:
            factors[other] = factors.get(other, 1.0) * probability

    # first join: best pair (a leaf not adjacent to a keeps gamma 1.0)
    best_pair: Optional[Tuple[str, str]] = None
    best_key: Optional[Tuple[float, float]] = None
    for a, b in itertools.permutations(names, 2):
        cost = float(sizes[a]) * sizes[b]
        key = (cost * pair_gamma[b].get(a, 1.0), cost)
        if best_key is None or key < best_key:
            best_key = key
            best_pair = (a, b)
    assert best_pair is not None and best_key is not None
    order = list(best_pair)
    placed = set(order)
    size = best_key[0]
    # gamma(placed, leaf) per remaining leaf, in declaration order; it
    # only changes when a neighbour of the leaf is placed
    leaf_gamma = {n: 1.0 for n in names if n not in placed}
    newly_placed: Sequence[str] = best_pair
    while leaf_gamma:
        for node in newly_placed:
            for leaf in pair_gamma[node]:
                if leaf in leaf_gamma:
                    leaf_gamma[leaf] = model.gamma(placed, leaf)
        best_leaf = None
        best_key = None
        for leaf, gamma in leaf_gamma.items():
            cost = size * sizes[leaf]
            key = (cost * gamma, cost)
            if best_key is None or key < best_key:
                best_key = key
                best_leaf = leaf
        assert best_leaf is not None and best_key is not None
        order.append(best_leaf)
        placed.add(best_leaf)
        del leaf_gamma[best_leaf]
        newly_placed = (best_leaf,)
        size = best_key[0]
    return order


def connected_order(motif: SimpleMotif) -> List[str]:
    """A baseline order: declaration order, then BFS-connected.

    Each component starts at its first node in declaration order and
    grows breadth-first along pattern edges.  Used as the "without
    optimized order" arm in the experiments — it uses no cost model and
    no candidate-set sizes, only connectivity, mirroring a naive
    implementation.
    """
    names = motif.node_names()
    order: List[str] = []
    remaining = set(names)
    while remaining:
        # start a new component at the declaration-order first node
        start = next(n for n in names if n in remaining)
        order.append(start)
        remaining.discard(start)
        frontier = [n for n in motif.neighbors(start) if n in remaining]
        while frontier:
            nxt = frontier.pop(0)
            if nxt not in remaining:
                continue
            order.append(nxt)
            remaining.discard(nxt)
            frontier.extend(n for n in motif.neighbors(nxt) if n in remaining)
    return order
