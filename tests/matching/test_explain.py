"""The access plan (``GraphMatcher.plan``) as rendered by EXPLAIN."""

from repro.matching import GraphMatcher, MatchOptions, baseline_options
from repro.obs.explain import explain_ground, render_text


def explain_text(matcher, pattern, options=None):
    return render_text({"graphs": [explain_ground(matcher, pattern, options)]})


def mates(entry, column):
    return {node["node"]: node[column] for node in entry["nodes"]}


class TestExplain:
    def test_optimized_plan_sections(self, paper_graph, triangle_pattern):
        matcher = GraphMatcher(paper_graph)
        entry = explain_ground(matcher, triangle_pattern)
        text = explain_text(matcher, triangle_pattern)
        assert "local=profile" in text
        assert "refine=on" in text
        assert "search order [greedy]" in text
        assert "search space 1" in text
        # the Fig. 4.17/4.18 spaces appear in the plan
        assert mates(entry, "after_pruning") == {"u1": 1, "u2": 2, "u3": 1}
        assert mates(entry, "refined") == {"u1": 1, "u2": 1, "u3": 1}
        assert entry["spaces"] == {"baseline": 8, "retrieved": 2,
                                   "refined": 1}

    def test_baseline_plan(self, paper_graph, triangle_pattern):
        matcher = GraphMatcher(paper_graph)
        text = explain_text(matcher, triangle_pattern, baseline_options())
        assert "local=none" in text
        assert "refine=off" in text
        assert "search order [connected]" in text
        assert "search space 8" in text

    def test_explain_does_not_run_search(self, paper_graph, triangle_pattern):
        """explain must stay cheap: no mappings are materialized."""
        matcher = GraphMatcher(paper_graph)
        options = MatchOptions(local="profile", refine=True)
        plan = matcher.plan(triangle_pattern, options)
        assert not hasattr(plan, "mappings")
        assert "search" not in plan.times
        text = explain_text(matcher, triangle_pattern, options)
        assert "Mapping(" not in text
        assert "actual:" not in text
