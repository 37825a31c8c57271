"""Selection through the one member loop (``planner.match_members``)."""

from repro.core import (GraphCollection, GroundPattern, cartesian_product,
                        select)
from repro.core.motif import clique_motif
from repro.datasets import erdos_renyi_graph
from repro.matching import brute_force_matches
from repro.matching.planner import SMALL_MEMBER_NODES, match_members
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
