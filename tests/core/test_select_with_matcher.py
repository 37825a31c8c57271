"""Selection through the one member loop (``planner.match_members``)."""

from collections import Counter

import pytest

from repro.core import (Graph, GraphCollection, GroundPattern,
                        cartesian_product, select)
from repro.core.motif import clique_motif
from repro.datasets import erdos_renyi_graph
from repro.matching import (GraphMatcher, MatchOptions, brute_force_matches,
                            find_matches)
from repro.matching.planner import SMALL_MEMBER_NODES, match_members
from repro.runtime import ExecutionContext, Outcome
from repro.storage import GraphDatabase


def node_sets(mappings):
    return {frozenset(m.nodes.items()) for m in mappings}


class TestSelectIsTheMemberLoop:
    def test_same_results_with_and_without_a_matcher_cache(self):
        graph = erdos_renyi_graph(SMALL_MEMBER_NODES, 30, num_labels=2,
                                  seed=5)
        pattern = GroundPattern(clique_motif(["L000", "L001"]))
        collection = GraphCollection([graph])
        cache = {}
        cached = list(match_members(collection, pattern.ground(),
                                    matchers=cache))
        selected = select(collection, pattern)
        assert (node_sets(m for run in cached for m in run.report.mappings)
                == node_sets(m.mapping for m in selected)
                == node_sets(brute_force_matches(pattern, graph)))
        # the caller's cache really was filled, with this member's matcher
        (matcher,) = cache.values()
        assert matcher.graph is graph and cached[0].matcher is matcher

    def test_first_match_mode(self, paper_graph):
        collection = GraphCollection([paper_graph])
        pattern = GroundPattern(clique_motif(["B"]))
        assert len(select(collection, pattern, exhaustive=False)) == 1
        assert len(select(collection, pattern, exhaustive=True)) == 2

    def test_policy_is_decided_by_member_size(self):
        """Below the constant: baseline plan on an index-less matcher that
        is never cached; at or above it: the requested options on the
        indexed, cached matcher."""
        small = erdos_renyi_graph(SMALL_MEMBER_NODES - 1, 40, seed=3,
                                  name="small")
        big = erdos_renyi_graph(SMALL_MEMBER_NODES, 40, seed=3, name="big")
        pattern = GroundPattern(clique_motif(["L000", None]))
        cache = {}
        by_name = {run.matcher.graph.name: run for run in match_members(
            GraphCollection([small, big]), [pattern], matchers=cache)}
        assert list(cache.values()) == [by_name["big"].matcher]
        assert by_name["small"].matcher.profile_index is None
        assert by_name["small"].matcher.attribute_index is None
        assert (by_name["small"].options.local,
                by_name["small"].options.refine,
                by_name["small"].report.policy) == ("none", False,
                                                    "connected")
        assert by_name["big"].matcher.profile_index is not None
        assert (by_name["big"].options.local, by_name["big"].options.refine,
                by_name["big"].report.policy) == ("profile", True, "greedy")

    def test_flwr_uses_the_database_matcher_cache(self):
        db = GraphDatabase()
        db.register("big", erdos_renyi_graph(400, 1200, seed=3))
        env = db.query("""
            graph Q { node a <label="L000">; node b; edge e (a, b); };
            for Q exhaustive in doc("big")
            return graph { node n <who=Q.a.label>; };
        """)
        (matcher,) = db._matchers.values()  # cached pipeline was built
        assert matcher.profile_index is not None
        assert len(env["__result__"]) > 0

    def test_transient_graphs_never_enter_the_database_cache(
            self, paper_graph):
        db = GraphDatabase()
        db.register("net", paper_graph)
        pattern = GroundPattern(clique_motif(["A"]))
        product = cartesian_product(db.doc("net"), db.doc("net"))
        assert len(select(product, pattern)) > 0
        assert db._matchers == {}


def eight_a_members(count=5):
    """*count* members, each with eight answers to :data:`ONE_A`; the
    last one big enough for the indexed matcher."""
    members = []
    for m in range(count):
        graph = Graph(f"m{m}")
        size = SMALL_MEMBER_NODES if m == count - 1 else 8
        for i in range(size):
            graph.add_node(f"v{i}", label="A" if i < 8 else "B")
        members.append(graph)
    return GraphCollection(members)


ONE_A = GroundPattern(clique_motif(["A"]))


class TestFirstMatchIgnoresTheLimit:
    """``exhaustive=False`` is one mapping per graph, whatever ``limit``."""

    def test_find_matches(self):
        for graph in eight_a_members():
            assert len(find_matches(ONE_A, graph, exhaustive=False,
                                    limit=5)) == 1

    def test_graph_matcher(self):
        for graph in eight_a_members():
            report = GraphMatcher(graph).match(
                ONE_A, MatchOptions(exhaustive=False, limit=5))
            assert len(report.mappings) == 1

    def test_algebra_select(self):
        selected = select(eight_a_members(), ONE_A, exhaustive=False,
                          limit=5)
        assert Counter(m.graph.name for m in selected) == {
            f"m{m}": 1 for m in range(5)}

    def test_database_paths(self):
        db = GraphDatabase()
        db.register("d", eight_a_members())
        reports = db.match("d", ONE_A, MatchOptions(exhaustive=False,
                                                    limit=5))
        assert {name: len(r.mappings) for name, r in reports.items()} == {
            f"m{m}": 1 for m in range(5)}
        selected = db.select("d", ONE_A, exhaustive=False)
        assert Counter(m.graph.name for m in selected) == {
            f"m{m}": 1 for m in range(5)}


class TestLimitCapsTheQuery:
    """``limit`` caps the answer over all members, not each member."""

    @pytest.mark.parametrize("limit", [1, 3, 8, 13, 39, 40, 41])
    def test_select_returns_a_prefix_of_the_answer(self, limit):
        collection = eight_a_members()
        selected = select(collection, ONE_A, limit=limit)
        kept = min(40, limit)
        assert len(selected) == kept
        # members are visited in order: the cap keeps whole members first
        counts = Counter(m.graph.name for m in selected)
        assert list(counts.values()) == [8] * (kept // 8) + (
            [kept % 8] if kept % 8 else [])

    def test_the_capping_run_reports_truncated(self):
        db = GraphDatabase()
        db.register("d", eight_a_members())
        context = ExecutionContext()
        reports = db.match("d", ONE_A, MatchOptions(limit=11),
                           context=context)
        assert [len(r.mappings) for r in reports.values()] == [8, 3]
        first, capping = reports.values()
        assert first.outcome.complete
        assert capping.outcome.status is Outcome.TRUNCATED
        assert capping.outcome.reason == "answer cap of 11 reached"
        assert context.outcome().status is Outcome.TRUNCATED
