"""Differential tests: the compiled planner loops against the reference.

``tests/matching/reference.py`` keeps the straightforward forms of
per-node retrieval (§4.2), Algorithm 4.2 (§4.3) and the greedy order
with its cost model (§4.4).  The compiled forms in ``repro.matching``
must return the same search space with the same ``RetrievalStats``, the
same refined space with the same ``RefinementStats``, and the same order
with bit-identical cost estimates — on directed and undirected graphs
with parallel edges, self-loops and unlabeled nodes, for patterns with
repeated labels, unconstrained nodes, node predicates (own and pushed
down), self-loops and parallel edges.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Graph, GroundPattern
from repro.core.motif import SimpleMotif
from repro.core.predicate import AttrRef, BinOp, Literal
from repro.index import AttributeIndexSet, ProfileIndex
from repro.matching import (
    CostModel,
    GraphStatistics,
    RefinementStats,
    RetrievalStats,
    greedy_order,
    order_cost,
    refine_search_space,
    retrieve_feasible_mates,
)
from tests.matching import reference

LABELS = "ABC"


def _graph(rng: random.Random, directed: bool) -> Graph:
    graph = Graph("G", directed=directed)
    for i in range(rng.randint(2, 16)):
        attrs = {"w": rng.randint(0, 3)}
        if rng.random() < 0.85:
            attrs["label"] = rng.choice(LABELS)
        graph.add_node(f"n{i}", **attrs)
    ids = graph.node_ids()
    for _ in range(rng.randint(1, 3 * len(ids))):
        # self-loops and parallel edges allowed
        graph.add_edge(rng.choice(ids), rng.choice(ids))
    return graph


def _weight_above(threshold: int, root=()) -> BinOp:
    return BinOp(">", AttrRef(root + ("w",)), Literal(threshold))


def _pattern(rng: random.Random) -> GroundPattern:
    motif = SimpleMotif()
    names = [f"u{i}" for i in range(rng.randint(1, 6))]
    for name in names:
        # few labels, so several nodes share one F_u
        attrs = {"label": rng.choice(LABELS)} if rng.random() < 0.8 else None
        predicate = _weight_above(rng.randint(0, 2)) if rng.random() < 0.15 else None
        motif.add_node(name, attrs=attrs, predicate=predicate)
    for i in range(rng.randint(0, 2 * len(names))):
        # self-loops and parallel edges allowed
        motif.add_edge(rng.choice(names), rng.choice(names), name=f"e{i}")
    pushed = (_weight_above(rng.randint(0, 2), (rng.choice(names),))
              if rng.random() < 0.2 else None)
    return GroundPattern(motif, predicate=pushed)


def _stats_items(stats: RetrievalStats):
    return [list(table.items()) for table in
            (stats.scanned, stats.after_fu, stats.after_local, stats.method)]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 9), st.booleans())
def test_compiled_planner_equals_reference(seed, directed):
    rng = random.Random(seed)
    graph = _graph(rng, directed)
    pattern = _pattern(rng)
    motif = pattern.motif
    indexes = [dict(attribute_index=AttributeIndexSet(graph),
                    profile_index=ProfileIndex(graph)), {}]

    # §4.2: retrieval and local pruning, space and RetrievalStats
    for local in ("none", "profile", "subgraph"):
        for index in indexes:
            got_stats, want_stats = RetrievalStats(), RetrievalStats()
            got = retrieve_feasible_mates(pattern, graph, local=local,
                                          stats=got_stats, **index)
            want = reference.retrieve_feasible_mates(
                pattern, graph, local=local, stats=want_stats, **index)
            assert list(got.items()) == list(want.items()), (local, index)
            assert _stats_items(got_stats) == _stats_items(want_stats)

    # §4.3: Algorithm 4.2, refined space and RefinementStats
    space = retrieve_feasible_mates(pattern, graph, local="profile",
                                    **indexes[0])
    for level in (None, 1, rng.randint(2, 4)):
        got_stats, want_stats = RefinementStats(), RefinementStats()
        got = refine_search_space(motif, graph, space, level=level,
                                  stats=got_stats)
        want = reference.refine_search_space(motif, graph, space, level=level,
                                             stats=want_stats)
        assert list(got.items()) == list(want.items()), level
        assert ((got_stats.levels_run, got_stats.pairs_checked,
                 got_stats.pairs_removed)
                == (want_stats.levels_run, want_stats.pairs_checked,
                    want_stats.pairs_removed)), level

    # §4.4: greedy order and its estimate, to the bit
    names = motif.node_names()
    sizes = {name: len(mates) for name, mates in got.items()}
    if rng.random() < 0.5:  # unequal sizes exercise more of the order
        sizes = {name: rng.randint(0, 9) for name in names}
    for stats in (GraphStatistics(graph), None):
        model = CostModel(motif, stats=stats, directed=directed)
        oracle = reference.CostModel(motif, stats=stats, directed=directed)
        order = greedy_order(motif, sizes, model)
        assert order == reference.greedy_order(motif, sizes, oracle)
        estimate = order_cost(order, sizes, model)
        assert estimate == reference.order_cost(order, sizes, oracle)
        shuffled = names[:]
        rng.shuffle(shuffled)
        assert (order_cost(shuffled, sizes, model)
                == reference.order_cost(shuffled, sizes, oracle))
        for name in names:
            placed = [n for n in names if n != name and rng.random() < 0.5]
            assert model.gamma(set(placed), name) == oracle.gamma(placed, name)
