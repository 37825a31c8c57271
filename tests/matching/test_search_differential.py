"""Differential tests: the compiled search and the count-vector profile
test against the exhaustive oracle.

``find_matches`` compiles Algorithm 4.1's ``Check`` into one back-edge
plan per depth and skips F_e where it cannot fail; ``brute_force_matches``
tries every injective assignment with its own edge test.  Both must
report the same node assignments *and* the same data edge for every
pattern edge, on directed and undirected graphs with self-loops,
parallel edges, edge tags, attributes and predicates, with pinned nodes,
with ``exhaustive=False`` and with ``limit``.

The profile property checks §4.2 pruning on labels of mixed types and
on nodes that only carry a tag, both with the profile index and on the
unindexed rung that counts profiles on the fly.  Its nodes also carry a
``v`` attribute mixing bool, int, float, str and NaN, constrained by
``<v=lit>`` and by ``v OP lit`` / ``lit OP v`` predicates, so indexed
retrieval must agree with F_u on ``True == 1 == 1.0 != "1"`` and on NaN.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Graph, GroundPattern
from repro.core.motif import SimpleMotif
from repro.core.predicate import AttrRef, BinOp, Literal
from repro.matching import (
    GraphMatcher,
    MatchOptions,
    brute_force_matches,
    find_matches,
)

LABELS = "AB"
EDGE_TAGS = (None, None, "r", "s")


def _graph(rng: random.Random, directed: bool) -> Graph:
    graph = Graph("G", directed=directed)
    for i in range(rng.randint(2, 6)):
        graph.add_node(f"n{i}", label=rng.choice(LABELS), w=rng.randint(0, 3))
    ids = graph.node_ids()
    for _ in range(rng.randint(1, 12)):
        # self-loops and parallel edges allowed
        graph.add_edge(rng.choice(ids), rng.choice(ids),
                       tag=rng.choice(EDGE_TAGS), w=rng.randint(0, 3))
    return graph


def _weight_above(threshold: int, root=()) -> BinOp:
    return BinOp(">", AttrRef(root + ("w",)), Literal(threshold))


def _pattern(rng: random.Random) -> GroundPattern:
    motif = SimpleMotif()
    names = [f"u{i}" for i in range(rng.randint(1, 3))]
    for name in names:
        attrs = {"label": rng.choice(LABELS)} if rng.random() < 0.6 else None
        predicate = _weight_above(rng.randint(0, 2)) if rng.random() < 0.2 else None
        motif.add_node(name, attrs=attrs, predicate=predicate)
    edge_names = []
    for i in range(rng.randint(0, 4)):
        a, b = rng.choice(names), rng.choice(names)
        if motif.edges_between(a, b):
            continue
        roll = rng.random()
        motif.add_edge(
            a, b, name=f"e{i}",
            # trivial F_e, a tag, an exact attribute, or a predicate
            tag="r" if 0.5 <= roll < 0.65 else None,
            attrs={"w": rng.randint(0, 3)} if 0.65 <= roll < 0.8 else None,
            predicate=_weight_above(rng.randint(0, 2)) if roll >= 0.8 else None)
        edge_names.append(f"e{i}")
    # pushed-down F_e / F_u from the graph-wide predicate
    conjuncts = []
    if edge_names and rng.random() < 0.3:
        conjuncts.append(_weight_above(1, (rng.choice(edge_names),)))
    if rng.random() < 0.2:
        conjuncts.append(_weight_above(0, (rng.choice(names),)))
    predicate = None
    for conjunct in conjuncts:
        predicate = conjunct if predicate is None else BinOp("&", predicate, conjunct)
    return GroundPattern(motif, predicate=predicate)


def _answers(mappings):
    return {(frozenset(m.nodes.items()), frozenset(m.edges.items()))
            for m in mappings}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 9), st.booleans())
def test_find_matches_equals_brute_force(seed, directed):
    rng = random.Random(seed)
    graph = _graph(rng, directed)
    pattern = _pattern(rng)
    expected = _answers(brute_force_matches(pattern, graph))

    assert _answers(find_matches(pattern, graph)) == expected
    order = pattern.node_names()
    rng.shuffle(order)
    assert _answers(find_matches(pattern, graph, order=order)) == expected

    first = find_matches(pattern, graph, exhaustive=False)
    assert len(first) == min(1, len(expected))
    assert _answers(first) <= expected
    limit = rng.randint(1, 3)
    capped = find_matches(pattern, graph, limit=limit)
    assert len(capped) == min(limit, len(expected))
    assert _answers(capped) <= expected

    # pin one or two pattern nodes to data nodes (possibly the same one)
    names = pattern.node_names()
    pinned = rng.sample(names, rng.randint(1, min(2, len(names))))
    initial = {name: rng.choice(graph.node_ids()) for name in pinned}
    kept = {answer for answer in expected
            if set(initial.items()) <= answer[0]}
    assert _answers(find_matches(pattern, graph, initial=initial)) == kept


MIXED_LABELS = ("A", "B", 1, 2, None)
TAGS = (None, "T", "A")
MIXED_VALUES = (1, 1.0, True, False, 0, 2, 2.5, "1", "a", float("nan"), None)
COMPARISONS = ("==", "<", "<=", ">", ">=")


def _mixed_graph(rng: random.Random) -> Graph:
    graph = Graph("M")
    for i in range(rng.randint(3, 8)):
        label = rng.choice(MIXED_LABELS)
        attrs = {} if label is None else {"label": label}
        value = rng.choice(MIXED_VALUES)
        if value is not None:
            attrs["v"] = value
        graph.add_node(f"n{i}", tag=rng.choice(TAGS), **attrs)
    ids = graph.node_ids()
    for _ in range(rng.randint(2, 14)):
        u, v = rng.choice(ids), rng.choice(ids)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


def _value_test(rng: random.Random, root=()) -> BinOp:
    """``v OP lit`` or ``lit OP v`` over a random mixed-type literal."""
    ref = AttrRef(root + ("v",))
    literal = Literal(rng.choice(MIXED_VALUES[:-1]))
    op = rng.choice(COMPARISONS)
    return BinOp(op, ref, literal) if rng.random() < 0.5 else BinOp(op, literal, ref)


def _mixed_pattern(rng: random.Random) -> GroundPattern:
    motif = SimpleMotif()
    for i in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.5:
            attrs = {"label": rng.choice([lab for lab in MIXED_LABELS
                                          if lab is not None])}
        elif roll < 0.7:
            attrs = {"v": rng.choice(MIXED_VALUES[:-1])}
        else:
            attrs = None
        tag = rng.choice(("T", "A")) if attrs is None and roll < 0.85 else None
        predicate = _value_test(rng) if rng.random() < 0.3 else None
        motif.add_node(f"u{i}", tag=tag, attrs=attrs, predicate=predicate)
    names = motif.node_names()
    for _ in range(rng.randint(0, 3)):
        a, b = rng.choice(names), rng.choice(names)
        if a != b and not motif.edges_between(a, b):
            motif.add_edge(a, b)
    # a pushed-down F_u from the graph-wide predicate
    predicate = (_value_test(rng, (rng.choice(names),))
                 if rng.random() < 0.3 else None)
    return GroundPattern(motif, predicate=predicate)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_profile_pruning_sound_on_mixed_labels(seed):
    rng = random.Random(seed)
    graph = _mixed_graph(rng)
    pattern = _mixed_pattern(rng)
    expected = _answers(brute_force_matches(pattern, graph))
    indexed = GraphMatcher(graph)
    unindexed = GraphMatcher(graph, indexed=False)
    for matcher in (indexed, unindexed):
        for refine in (False, True):
            report = matcher.match(pattern, MatchOptions(refine=refine))
            assert not report.degradation
            assert _answers(report.mappings) == expected, (
                matcher.profile_index is not None, refine)
