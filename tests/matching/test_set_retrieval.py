"""Retrieval and §4.2 pruning as set operations, against their oracles.

* An exact attribute-index answer skips the F_u re-check: skipping must
  equal re-checking (``tests/matching/reference.py`` always re-checks)
  for pattern values of every comparison class against mixed-type data,
  tag-carrying nodes, predicates and multi-attribute nodes.
* Profile pruning intersects per-label holder sets: it must equal the
  per-candidate count-dominance loop, which the reference runs on
  profiles it counts itself.
* A disjunction of index-readable conditions is retrieved as the union
  of its lookups.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Graph, GroundPattern
from repro.core.motif import SimpleMotif
from repro.core.predicate import AttrRef, BinOp, Literal
from repro.datasets import erdos_renyi_graph
from repro.index import AttributeIndexSet, ProfileIndex
from repro.lang import compile_pattern_text
from repro.matching import GraphMatcher, RetrievalStats, retrieve_feasible_mates
from repro.matching.neighborhood import profile_counts
from tests.matching import reference

NAN = float("nan")
#: pattern values of each comparison class: ``True == 1 == 1.0``, ``"1"``
#: is neither, NaN equals nothing, and F_u reads a missing attribute as None
PATTERN_VALUES = (True, False, 0, 1, 1.0, 2.5, NAN, "1", "a", "", None)
#: data attributes hold scalars only (no None)
DATA_VALUES = PATTERN_VALUES[:-1] + (-0.0, 2, float("inf"), "b")
OPS = ("==", "!=", "<", "<=", ">", ">=")


def _stats_items(stats: RetrievalStats):
    return [list(table.items()) for table in
            (stats.scanned, stats.after_fu, stats.after_local, stats.method)]


def _one_node(attrs=None, tag=None, predicate=None) -> GroundPattern:
    motif = SimpleMotif()
    motif.add_node("u", tag=tag, attrs=attrs, predicate=predicate)
    return GroundPattern(motif)


def _typed_graph(rng: random.Random) -> Graph:
    graph = Graph("G")
    for i in range(rng.randint(1, 14)):
        attrs = {attr: rng.choice(DATA_VALUES) for attr in ("k", "j")
                 if rng.random() < 0.8}
        graph.add_node(f"n{i}", tag=rng.choice((None, None, "t", "s")), **attrs)
    return graph


def _typed_pattern(rng: random.Random) -> GroundPattern:
    motif = SimpleMotif()
    names = [f"u{i}" for i in range(rng.randint(1, 4))]
    for name in names:
        attrs = {attr: rng.choice(PATTERN_VALUES)
                 for attr in rng.sample(("k", "j"), rng.choice((0, 1, 1, 1, 2)))}
        predicate = (BinOp(rng.choice(OPS), AttrRef(("j",)),
                           Literal(rng.choice(PATTERN_VALUES)))
                     if rng.random() < 0.2 else None)
        motif.add_node(name, tag="t" if rng.random() < 0.2 else None,
                       attrs=attrs, predicate=predicate)
    pushed = (BinOp(rng.choice(OPS), AttrRef((rng.choice(names), "k")),
                    Literal(rng.choice(PATTERN_VALUES)))
              if rng.random() < 0.2 else None)
    return GroundPattern(motif, predicate=pushed)


class TestExactIndexAnswer:
    """One ``str`` or ``num`` attribute, no tag, no predicate: the index
    answer is F_u's survivors, so F_u is not run again."""

    def graph(self) -> Graph:
        g = Graph("G")
        for node_id, value in (("a", 1), ("b", True), ("c", 1.0), ("d", "1"),
                               ("e", NAN), ("f", ""), ("g", 2)):
            g.add_node(node_id, k=value)
        g.add_node("h", tag="t", k=1)
        g.add_node("i")
        return g

    @pytest.mark.parametrize("value,expected", [
        (1, ["a", "b", "c", "h"]), (True, ["a", "b", "c", "h"]),
        (1.0, ["a", "b", "c", "h"]), ("1", ["d"]), (2.5, [])])
    def test_an_exact_answer_skips_f_u(self, monkeypatch, value, expected):
        graph = self.graph()
        index = AttributeIndexSet(graph)
        pattern = _one_node({"k": value})
        assert index.candidates_for({"k": value})[1]
        monkeypatch.setattr(pattern, "node_test",
                            lambda name: pytest.fail("F_u ran"))
        stats = RetrievalStats()
        space = retrieve_feasible_mates(pattern, graph, attribute_index=index,
                                        stats=stats)
        assert space["u"] == expected
        assert stats.scanned["u"] == stats.after_fu["u"] == len(expected)
        space["u"].append("x")  # a fresh list, not the index's posting
        assert index.candidates_for({"k": value})[0] == expected

    @pytest.mark.parametrize("pattern", [
        _one_node({"k": 1}, tag="t"),
        _one_node({"k": 1, "j": 1}),
        _one_node({"k": 1}, predicate=BinOp(">", AttrRef(("k",)), Literal(0))),
        _one_node({"k": None}),
        GroundPattern(_one_node({"k": 1}).motif,
                      predicate=BinOp("!=", AttrRef(("u", "k")), Literal(2))),
    ], ids=["tag", "two-attributes", "own-predicate", "none",
            "pushed-predicate"])
    def test_anything_else_is_re_checked(self, pattern):
        graph = self.graph()
        index = AttributeIndexSet(graph)
        calls = []
        fu = pattern.node_test("u")
        pattern._node_tests["u"] = lambda node: calls.append(node) or fu(node)
        space = retrieve_feasible_mates(pattern, graph, attribute_index=index)
        assert calls, "F_u was skipped"
        assert space == retrieve_feasible_mates(pattern, graph)

    def test_which_answers_are_exact(self):
        index = AttributeIndexSet(self.graph(), attributes=["k"])
        assert index.candidates_for({"k": 1})[1] is True
        assert index.candidates_for({"k": "1"})[1] is True
        # the second attribute is not indexed
        assert index.candidates_for({"k": 1, "j": 1})[1] is False
        # NaN equals nothing: no candidates, and not an exact answer
        assert index.candidates_for({"k": NAN}) == ([], False)
        # a missing attribute reads as None, which the index cannot answer
        assert index.candidates_for({"k": None}) == (None, False)
        assert index.candidates_for(
            {"k": 1}, BinOp(">", AttrRef(("k",)), Literal(0)))[1] is False

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10 ** 9), st.booleans())
    def test_skipping_equals_re_checking(self, seed, all_attributes):
        rng = random.Random(seed)
        graph = _typed_graph(rng)
        pattern = _typed_pattern(rng)
        index = AttributeIndexSet(graph,
                                  attributes=None if all_attributes else ["k"])
        got_stats, want_stats = RetrievalStats(), RetrievalStats()
        got = retrieve_feasible_mates(pattern, graph, attribute_index=index,
                                      stats=got_stats)
        want = reference.retrieve_feasible_mates(
            pattern, graph, attribute_index=index, stats=want_stats)
        assert list(got.items()) == list(want.items())
        assert _stats_items(got_stats) == _stats_items(want_stats)
        scanned = retrieve_feasible_mates(pattern, graph)
        assert {name: sorted(ids) for name, ids in got.items()} == \
            {name: sorted(ids) for name, ids in scanned.items()}


def _labelled_graph(rng: random.Random, directed: bool) -> Graph:
    """Labels with repeats, unlabelled nodes and nodes labelled only by
    their tag; self-loops and parallel edges allowed."""
    graph = Graph("G", directed=directed)
    for i in range(rng.randint(1, 18)):
        draw = rng.random()
        if draw < 0.6:
            graph.add_node(f"n{i}", label=rng.choice("AAB C"))
        elif draw < 0.8:
            graph.add_node(f"n{i}", tag=rng.choice("AB"))
        else:
            graph.add_node(f"n{i}")
    ids = graph.node_ids()
    for _ in range(rng.randint(0, 3 * len(ids))):
        graph.add_edge(rng.choice(ids), rng.choice(ids))
    return graph


def _labelled_pattern(rng: random.Random) -> GroundPattern:
    motif = SimpleMotif()
    names = [f"u{i}" for i in range(rng.randint(1, 6))]
    for name in names:
        draw = rng.random()
        attrs = ({"label": rng.choice("AAB")} if draw < 0.7
                 else {"label": None} if draw < 0.8 else None)
        motif.add_node(name, tag=rng.choice("AB") if rng.random() < 0.1 else None,
                       attrs=attrs)
    for i in range(rng.randint(0, 2 * len(names))):
        motif.add_edge(rng.choice(names), rng.choice(names), name=f"e{i}")
    return GroundPattern(motif)


class TestHolderSets:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10 ** 9), st.booleans(), st.sampled_from([1, 2]))
    def test_holder_sets_equal_counted_profiles(self, seed, directed, radius):
        graph = _labelled_graph(random.Random(seed), directed)
        index = ProfileIndex(graph, radius=radius)
        counts = {node_id: profile_counts(graph, node_id, radius)
                  for node_id in graph.node_ids()}
        for label in {None, "A", "B", "C", " ", "Z"}:
            for count in (1, 2, 3):
                want = {node_id for node_id, held in counts.items()
                        if held.get(label, 0) >= count}
                assert set(index.holders(label, count)) == want
            assert index.holders(label, 2) is index.holders(label, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10 ** 9), st.booleans(), st.sampled_from([1, 2]))
    def test_holder_set_pruning_equals_the_counting_loop(self, seed, directed,
                                                         radius):
        rng = random.Random(seed)
        graph = _labelled_graph(rng, directed)
        pattern = _labelled_pattern(rng)
        want_stats = RetrievalStats()
        want = reference.retrieve_feasible_mates(
            pattern, graph, local="profile", radius=radius, stats=want_stats)
        indexes = (dict(attribute_index=AttributeIndexSet(graph),
                        profile_index=ProfileIndex(graph, radius=radius)),
                   dict(profile_index=ProfileIndex(graph, radius=radius)),
                   {})  # the unindexed rung's counting loop
        for index in indexes:
            got_stats = RetrievalStats()
            got = retrieve_feasible_mates(pattern, graph, local="profile",
                                          radius=radius, stats=got_stats,
                                          **index)
            assert list(got.items()) == list(want.items()), index
            if "attribute_index" not in index:
                assert _stats_items(got_stats) == _stats_items(want_stats)


    def test_a_new_graph_version_drops_the_derived_sets(self):
        graph = Graph("G")
        for node_id in ("a", "b", "c"):
            graph.add_node(node_id, label="A")
        graph.add_edge("a", "b")
        matcher = GraphMatcher(graph)
        assert set(matcher.profile_index.holders("A", 2)) == {"a", "b"}
        graph.add_edge("b", "c")
        assert matcher.refresh()
        assert set(matcher.profile_index.holders("A", 2)) == {"a", "b", "c"}
        assert set(matcher.profile_index.holders("A", 3)) == {"b"}


class TestDisjunctiveRetrieval:
    TEXTS = (
        'graph P { node v1 where v1.label = "L000" | v1.label = "L002"; '
        'node v2 <label="L001">; edge e1 (v1, v2); }',
        'graph P { node v1; node v2 <label="L001">; edge e1 (v1, v2); } '
        'where v1.label = "L000" | v1.label = "L002"',
    )

    @pytest.mark.parametrize("text", TEXTS, ids=["node-level", "pushed-down"])
    def test_a_disjunctive_label_query_uses_the_index(self, text):
        graph = erdos_renyi_graph(60, 240, num_labels=4, seed=5)
        (pattern,) = compile_pattern_text(text).ground()
        report = GraphMatcher(graph).match(pattern)
        assert report.retrieval.method["v1"] == "attribute-index"
        labels = Counter(node.get("label") for node in graph.nodes())
        assert report.retrieval.scanned["v1"] == labels["L000"] + labels["L002"]
        scanned = GraphMatcher(graph, indexed=False).match(pattern)
        assert scanned.retrieval.method["v1"] == "scan"
        assert report.mappings and \
            Counter(report.mappings) == Counter(scanned.mappings)

    def test_the_union_is_each_node_once_in_node_order(self):
        graph = Graph("G")
        for i, (label, w) in enumerate(("A5", "B1", "D2", "A2", "C3", "B4",
                                        "C0")):
            graph.add_node(f"n{i}", label=label, w=int(w))
        predicate = BinOp("|", BinOp("|", BinOp(">", AttrRef(("w",)), Literal(2)),
                                     BinOp("==", AttrRef(("label",)), Literal("A"))),
                          BinOp(">=", Literal(1), AttrRef(("w",))))
        pattern = _one_node(predicate=predicate)
        stats = RetrievalStats()
        space = retrieve_feasible_mates(pattern, graph, stats=stats,
                                        attribute_index=AttributeIndexSet(graph))
        assert space == retrieve_feasible_mates(pattern, graph)
        assert space["u"] == ["n0", "n1", "n3", "n4", "n5", "n6"]
        assert stats.method["u"] == "attribute-index"

    @pytest.mark.parametrize("alternative", [
        BinOp("==", AttrRef(("label",)), AttrRef(("w",))),
        BinOp("!=", AttrRef(("label",)), Literal("A")),
        BinOp("==", AttrRef(("missing",)), Literal(1)),
    ], ids=["attribute-vs-attribute", "not-equal", "unindexed-attribute"])
    def test_an_unreadable_alternative_scans(self, alternative):
        graph = Graph("G")
        graph.add_node("n0", label="A", w=1)
        graph.add_node("n1", label="B", w=2)
        predicate = BinOp("|", BinOp("==", AttrRef(("label",)), Literal("B")),
                          alternative)
        pattern = _one_node(predicate=predicate)
        stats = RetrievalStats()
        space = retrieve_feasible_mates(pattern, graph, stats=stats,
                                        attribute_index=AttributeIndexSet(graph))
        assert stats.method["u"] == "scan"
        assert space == retrieve_feasible_mates(pattern, graph)
