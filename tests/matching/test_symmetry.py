"""Pattern automorphisms and the symmetry-aware search.

``find_matches`` searches one mapping per automorphism class and emits
the rest from the stabiliser chain; ``tests/matching/reference.py``
keeps the search that finds every mapping.  σ's answer is a bag of
injective mappings, so both must return the same bag — node and edge
dicts, key order included — on directed and undirected graphs with
parallel edges and self-loops, for symmetry-heavy motifs: cliques,
cycles and stars of repeated labels, parallel pattern edges and
self-loops, node and edge predicates, and residual predicates that name
nodes.  Orbit-shared pruning and Alg. 4.2 must return the spaces and
counters of the per-node forms.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Graph, GroundPattern
from repro.core.motif import SimpleMotif
from repro.core.predicate import AttrRef, BinOp, Literal
from repro.matching import (
    GraphMatcher,
    RefinementStats,
    RetrievalStats,
    find_matches,
    refine_search_space,
    retrieve_feasible_mates,
)
from repro.matching.symmetry import Symmetry, automorphisms
from tests.matching import reference

# -- motifs ----------------------------------------------------------------------


def _motif(n: int, edges, labels="A") -> SimpleMotif:
    motif = SimpleMotif()
    for i in range(n):
        motif.add_node(f"u{i}", attrs={"label": labels[i % len(labels)]})
    for a, b in edges:
        motif.add_edge(f"u{a}", f"u{b}")
    return motif


def clique(n: int, labels="A") -> GroundPattern:
    return GroundPattern(_motif(n, [(a, b) for a in range(n)
                                    for b in range(a + 1, n)], labels))


def cycle(n: int) -> GroundPattern:
    return GroundPattern(_motif(n, [(i, (i + 1) % n) for i in range(n)]))


def star(n: int) -> GroundPattern:
    """A centre and ``n - 1`` leaves, all of one label."""
    return GroundPattern(_motif(n, [(0, i) for i in range(1, n)]))


def labelled_path(n: int) -> GroundPattern:
    return GroundPattern(_motif(n, [(i, i + 1) for i in range(n - 1)],
                                labels=[f"L{i}" for i in range(n)]))


def _weight_above(threshold: int, root=()) -> BinOp:
    return BinOp(">", AttrRef(root + ("w",)), Literal(threshold))


# -- the group -------------------------------------------------------------------


class TestGroupOrder:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_clique_is_the_symmetric_group(self, n):
        assert clique(n).symmetry(False).order() == math.factorial(n)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_cycle_is_dihedral_undirected_and_cyclic_directed(self, n):
        assert cycle(n).symmetry(False).order() == 2 * n
        assert cycle(n).symmetry(True).order() == n

    @pytest.mark.parametrize("n", range(2, 7))
    def test_one_label_star_permutes_its_leaves(self, n):
        # with two nodes the "star" is one edge: its ends swap
        expected = 2 if n == 2 else math.factorial(n - 1)
        assert star(n).symmetry(False).order() == expected

    def test_labelled_path_is_trivial(self):
        symmetry = labelled_path(5).symmetry(False)
        assert symmetry.trivial and symmetry.order() == 1
        assert symmetry.constraints == ()

    def test_a_node_predicate_fixes_its_node(self):
        motif = _motif(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
        motif.node("u0").predicate = _weight_above(1)
        symmetry = GroundPattern(motif).symmetry(False)
        assert symmetry.order() == 6
        assert symmetry.orbit_of == {"u0": "u0", "u1": "u1", "u2": "u1",
                                     "u3": "u1"}

    def test_a_pushed_down_node_predicate_fixes_its_node(self):
        motif = _motif(3, [(0, 1), (1, 2), (2, 0)])
        pattern = GroundPattern(motif, predicate=_weight_above(1, ("u2",)))
        assert pattern.symmetry(False).order() == 2

    def test_an_edge_predicate_fixes_its_edge(self):
        motif = _motif(4, [(i, (i + 1) % 4) for i in range(4)])
        motif.edge("_e1").predicate = _weight_above(0)
        # only the reflection through the predicate edge's midpoint
        assert GroundPattern(motif).symmetry(False).order() == 2

    def test_edge_tags_and_attributes_are_colours(self):
        motif = _motif(3, [])
        motif.add_edge("u0", "u1", tag="r")
        motif.add_edge("u1", "u2", tag="r")
        motif.add_edge("u2", "u0", tag="s")
        assert GroundPattern(motif).symmetry(False).order() == 2

    def test_parallel_pattern_edges_count_once_per_node_permutation(self):
        motif = _motif(2, [(0, 1), (0, 1)])
        symmetry = GroundPattern(motif).symmetry(False)
        assert symmetry.order() == 2
        assert GroundPattern(_motif(2, [(0, 1), (1, 0)])).symmetry(
            True).order() == 2
        assert GroundPattern(_motif(2, [(0, 1), (0, 1)])).symmetry(
            True).order() == 1

    def test_self_loops_must_map_to_self_loops(self):
        motif = _motif(3, [(0, 1), (1, 2), (2, 0), (0, 0)])
        assert GroundPattern(motif).symmetry(False).order() == 2

    def test_cached_per_pattern_and_direction(self):
        pattern = cycle(5)
        assert pattern.symmetry(False) is pattern.symmetry(False)
        assert pattern.symmetry(True) is not pattern.symmetry(False)

    def test_chain_stores_at_most_k_choose_2_representatives(self):
        symmetry = clique(7).symmetry(False)
        stored = sum(len(level.orbit) - 1 for level in symmetry.levels)
        assert stored <= 7 * 6 // 2
        assert isinstance(symmetry, Symmetry)

    def test_search_budget_falls_back_to_the_trivial_group(self, monkeypatch):
        from repro.matching import symmetry as module

        monkeypatch.setattr(module, "SEARCH_BUDGET", 0)
        assert automorphisms(clique(4), False).trivial


def _dense_graph(n: int, labels: str, seed: int, directed: bool = False) -> Graph:
    rng = random.Random(seed)
    graph = Graph("G", directed=directed)
    for i in range(n):
        graph.add_node(f"n{i}", label=rng.choice(labels), w=rng.randint(0, 3))
    for i in range(n):
        for j in range(n):
            if i != j and (directed or i < j) and rng.random() < 0.8:
                graph.add_edge(f"n{i}", f"n{j}")
    return graph


@pytest.mark.parametrize("pattern", [clique(4), cycle(5), star(5), clique(3)],
                         ids=["K4", "C5", "star5", "K3"])
@pytest.mark.parametrize("directed", [False, True])
def test_canonical_count_times_group_order_is_the_plain_count(pattern,
                                                              directed):
    graph = _dense_graph(9, "A", seed=3, directed=directed)
    symmetry = pattern.symmetry(directed)
    found = find_matches(pattern, graph)
    canonical = [m for m in found
                 if all(m.nodes[b] < m.nodes[x] for b, x in symmetry.constraints)]
    assert canonical  # the graph is dense enough to match every motif
    assert len(canonical) * symmetry.order() == len(found)
    assert len(found) == len(reference.find_matches(pattern, graph))


# -- the search against the reference --------------------------------------------

LABELS = "AB"
EDGE_TAGS = (None, None, None, "r")


def _graph(rng: random.Random, directed: bool) -> Graph:
    graph = Graph("G", directed=directed)
    for i in range(rng.randint(4, 8)):
        graph.add_node(f"n{i}", label=rng.choice("AAAB"), w=rng.randint(0, 3))
    ids = graph.node_ids()
    density = rng.uniform(0.3, 1.0)
    for a in ids:
        for b in ids:
            if a != b and (directed or a < b) and rng.random() < density:
                graph.add_edge(a, b, tag=rng.choice(EDGE_TAGS),
                               w=rng.randint(0, 3))
    for _ in range(rng.randint(0, 4)):  # self-loops and parallel edges
        graph.add_edge(rng.choice(ids), rng.choice(ids),
                       tag=rng.choice(EDGE_TAGS), w=rng.randint(0, 3))
    return graph


def _symmetric_pattern(rng: random.Random) -> GroundPattern:
    kind = rng.choice(("clique", "cycle", "star", "random"))
    n = rng.randint(2, 4)
    if kind == "clique":
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    elif kind == "cycle":
        n = max(n, 3)
        pairs = [(i, (i + 1) % n) for i in range(n)]
    elif kind == "star":
        pairs = [(0, i) for i in range(1, n)]
    else:
        pairs = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(1, 4))]
    labels = "A" if rng.random() < 0.6 else rng.choice(("AB", "AAB", "ABB"))
    motif = _motif(n, [], labels)
    for a, b in pairs:
        motif.add_edge(f"u{a}", f"u{b}", tag="r" if rng.random() < 0.1 else None)
    if rng.random() < 0.2:  # a parallel pattern edge
        a, b = rng.choice(pairs)
        motif.add_edge(f"u{b}", f"u{a}")
    if rng.random() < 0.2:  # self-loops, on one node or on all
        for i in (range(n) if rng.random() < 0.5 else [rng.randrange(n)]):
            motif.add_edge(f"u{i}", f"u{i}")
    if rng.random() < 0.15:
        motif.node(f"u{rng.randrange(n)}").predicate = _weight_above(
            rng.randint(0, 2))
    edge_names = motif.edge_names()
    if edge_names and rng.random() < 0.15:
        motif.edge(rng.choice(edge_names)).predicate = _weight_above(
            rng.randint(0, 2))
    predicate = None
    roll = rng.random()
    if roll < 0.2:  # a residual predicate naming two nodes
        predicate = BinOp("<", AttrRef(("u0", "w")), AttrRef((f"u{n - 1}", "w")))
    elif roll < 0.3:  # pushed down to one node
        predicate = _weight_above(rng.randint(0, 2), (f"u{rng.randrange(n)}",))
    return GroundPattern(motif, predicate=predicate)


def _bag(mappings):
    """Mappings as a bag of (node items, edge items), key order included."""
    return Counter((tuple(m.nodes.items()), tuple(m.edges.items()))
                   for m in mappings)


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 10 ** 9), st.booleans())
def test_symmetric_search_returns_the_reference_bag(seed, directed):
    rng = random.Random(seed)
    graph = _graph(rng, directed)
    pattern = _symmetric_pattern(rng)
    expected = _bag(reference.find_matches(pattern, graph))

    assert _bag(find_matches(pattern, graph)) == expected
    order = pattern.node_names()
    rng.shuffle(order)
    assert _bag(find_matches(pattern, graph, order=order)) == _bag(
        reference.find_matches(pattern, graph, order=order))

    # a capped answer is a duplicate-free part of the bag
    total = sum(expected.values())
    limit = rng.randint(1, 6)
    capped = _bag(find_matches(pattern, graph, limit=limit))
    assert sum(capped.values()) == min(limit, total)
    assert all(count == 1 for count in capped.values())
    assert not capped - expected
    first = _bag(find_matches(pattern, graph, exhaustive=False))
    assert sum(first.values()) == min(1, total)
    assert not first - expected

    # candidates that differ inside an orbit keep the search plain
    names = pattern.node_names()
    candidates = {name: graph.node_ids() for name in names}
    candidates[rng.choice(names)] = rng.sample(graph.node_ids(),
                                               rng.randint(0, 3))
    assert _bag(find_matches(pattern, graph, candidates=candidates)) == _bag(
        reference.find_matches(pattern, graph, candidates=candidates))

    # pinned searches are the plain search, mapping for mapping
    pinned = rng.sample(names, rng.randint(1, min(2, len(names))))
    initial = {name: rng.choice(graph.node_ids()) for name in pinned}
    assert [(m.nodes, m.edges) for m in find_matches(
        pattern, graph, initial=initial)] == [
        (m.nodes, m.edges)
        for m in reference.find_matches(pattern, graph, initial=initial)]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 9), st.booleans())
def test_orbit_shared_pruning_and_refinement_match_the_per_node_forms(
        seed, directed):
    rng = random.Random(seed)
    graph = _graph(rng, directed)
    for _ in range(rng.randint(0, 20)):  # big enough for a real plan
        graph.add_node(f"x{graph.num_nodes()}", label=rng.choice(LABELS))
    pattern = _symmetric_pattern(rng)
    matcher = GraphMatcher(graph)
    indexes = dict(attribute_index=matcher.attribute_index,
                   profile_index=matcher.profile_index)
    for local in ("profile", "subgraph"):
        stats, expected_stats = RetrievalStats(), RetrievalStats()
        space = retrieve_feasible_mates(pattern, graph, local=local,
                                        stats=stats, **indexes)
        assert space == reference.retrieve_feasible_mates(
            pattern, graph, local=local, stats=expected_stats, **indexes)
        assert vars(stats) == vars(expected_stats)

    symmetry = pattern.symmetry(directed)
    shared, plain = RefinementStats(), RefinementStats()
    refined = refine_search_space(pattern.motif, graph, space, stats=shared,
                                  orbits=symmetry.orbit_of)
    assert refined == refine_search_space(pattern.motif, graph, space,
                                          stats=plain)
    assert (shared.levels_run, shared.pairs_checked, shared.pairs_removed) == (
        plain.levels_run, plain.pairs_checked, plain.pairs_removed)
