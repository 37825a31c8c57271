"""Unit tests for the full access-method pipeline (GraphMatcher)."""

from dataclasses import fields

import pytest

from repro.core import Graph, GraphPattern, GroundPattern
from repro.core.motif import MotifBlock, SimpleMotif, clique_motif
from repro.matching import (
    GraphMatcher,
    MatchOptions,
    baseline_options,
    brute_force_matches,
    optimized_options,
)
from repro.matching.planner import match_members


class TestPipeline:
    def test_all_strategies_agree(self, paper_graph, triangle_pattern):
        matcher = GraphMatcher(paper_graph)
        expected = None
        for local in ("none", "profile", "subgraph"):
            for refine in (False, True):
                for optimize in (False, True):
                    options = MatchOptions(
                        local=local, refine=refine, optimize_order=optimize
                    )
                    report = matcher.match(triangle_pattern, options)
                    found = {frozenset(m.nodes.items()) for m in report.mappings}
                    if expected is None:
                        expected = found
                    assert found == expected, (local, refine, optimize)

    def test_space_sizes_follow_fig_4_17(self, paper_graph, triangle_pattern):
        matcher = GraphMatcher(paper_graph)
        profile_report = matcher.match(
            triangle_pattern, MatchOptions(local="profile", refine=False)
        )
        subgraph_report = matcher.match(
            triangle_pattern, MatchOptions(local="subgraph", refine=False)
        )
        refined_report = matcher.match(
            triangle_pattern, MatchOptions(local="profile", refine=True)
        )
        assert profile_report.baseline_space == 8  # 2 x 2 x 2
        assert profile_report.retrieved_space == 2  # {A1} x {B1,B2} x {C2}
        assert subgraph_report.retrieved_space == 1
        assert refined_report.refined_space == 1

    def test_reduction_ratio(self, paper_graph, triangle_pattern):
        matcher = GraphMatcher(paper_graph)
        report = matcher.match(triangle_pattern, optimized_options())
        assert report.reduction_ratio("retrieved") == pytest.approx(2 / 8)
        assert report.reduction_ratio("refined") == pytest.approx(1 / 8)

    def test_times_recorded(self, paper_graph, triangle_pattern):
        matcher = GraphMatcher(paper_graph)
        report = matcher.match(triangle_pattern, optimized_options())
        # one timing per stage: retrieval + pruning is a single pass (the
        # baseline space falls out of it), so there is no second
        # "retrieve_baseline" stage
        assert set(report.times) == {"local_pruning", "refine", "order",
                                     "search"}
        assert report.total_time >= 0

    def test_limit(self, paper_graph):
        motif = clique_motif(["A"])
        matcher = GraphMatcher(paper_graph)
        report = matcher.match(GroundPattern(motif),
                               MatchOptions(limit=1))
        assert len(report.mappings) == 1

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_is_refused(self, limit):
        with pytest.raises(ValueError, match="limit must be at least 1"):
            MatchOptions(limit=limit)
        with pytest.raises(ValueError, match="limit must be at least 1"):
            optimized_options(limit=limit)

    def test_first_match_mode(self, paper_graph):
        motif = clique_motif(["B"])
        matcher = GraphMatcher(paper_graph)
        report = matcher.match(GroundPattern(motif),
                               MatchOptions(exhaustive=False))
        assert len(report.mappings) == 1

    def test_without_indexes(self, paper_graph, triangle_pattern):
        matcher = GraphMatcher(paper_graph, indexed=False)
        report = matcher.match(triangle_pattern, optimized_options())
        assert len(report.mappings) == 1

    def test_option_presets(self):
        base = baseline_options()
        assert (base.local, base.refine, base.optimize_order) == (
            "none", False, False,
        )
        opt = optimized_options(limit=7)
        assert (opt.local, opt.refine, opt.optimize_order) == (
            "profile", True, True,
        )
        assert opt.limit == 7

    def test_one_label_definition(self):
        """Constraints on an attribute other than ``label`` are F_u only:
        profile pruning reads ``label`` on both sides, so it keeps every
        answer (a per-query label attribute used to drop them all)."""
        graph = Graph("G")
        for node_id, label, kind in (("n0", "a", "x"), ("n1", "b", "y"),
                                     ("n2", "c", "x")):
            graph.add_node(node_id, label=label, kind=kind)
        graph.add_edge("n0", "n1")
        graph.add_edge("n1", "n2")
        motif = SimpleMotif()
        motif.add_node("u", attrs={"kind": "x"})
        motif.add_node("w", attrs={"kind": "y"})
        motif.add_edge("u", "w")
        pattern = GroundPattern(motif)
        expected = {frozenset(m.nodes.items())
                    for m in brute_force_matches(pattern, graph)}
        assert len(expected) == 2
        matcher = GraphMatcher(graph)
        for local in ("none", "profile", "subgraph"):
            report = matcher.match(pattern, MatchOptions(local=local))
            assert {frozenset(m.nodes.items())
                    for m in report.mappings} == expected, local
        assert "label_attr" not in {f.name for f in fields(MatchOptions)}
        with pytest.raises(TypeError):
            GraphMatcher(graph, label_attr="kind")


class TestRecursivePatterns:
    def test_match_members_unions_derivations(self, paper_graph):
        from repro.core.motif import Disjunction

        a = MotifBlock()
        a.add_node("u", attrs={"label": "A"})
        b = MotifBlock()
        b.add_node("u", attrs={"label": "C"})
        pattern = GraphPattern(Disjunction([a, b]), name="AorC")
        mappings = [m for run in match_members([paper_graph],
                                               pattern.ground())
                    for m in run.report.mappings]
        labels = {paper_graph.node(m.nodes["u"]).label for m in mappings}
        assert labels == {"A", "C"}
        assert len(mappings) == 4
