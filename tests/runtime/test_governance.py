"""Governance threaded through the engines: partial results, fallbacks.

These tests exercise the issue's acceptance scenarios: deadline expiry
mid-search with partial matches kept, answer caps terminating the search
from the inside, Datalog fixpoint cancellation, and the planner's
degradation ladder when index structures are missing or broken.
"""

import pytest

from repro.core import Graph, GroundPattern, clique_motif
from repro.datalog import Atom, BodyLiteral, Program, Rule, Var, evaluate
from repro.matching import GraphMatcher, MatchOptions, find_matches
from repro.matching.planner import match_members
from repro.runtime import (
    CancellationToken,
    ExecutionContext,
    Outcome,
)


@pytest.fixture
def many_a_graph() -> Graph:
    """A 60-node path, every node labeled A: many matches, cheap steps."""
    graph = Graph("path")
    for i in range(60):
        graph.add_node(f"v{i}", label="A")
    for i in range(59):
        graph.add_edge(f"v{i}", f"v{i + 1}")
    return graph


SINGLE_A = GroundPattern(clique_motif(["A"]))


def advancing_clock(step: float):
    state = {"t": 0.0}

    def clock() -> float:
        state["t"] += step
        return state["t"]

    return clock


class TestSearchGovernance:
    def test_deadline_mid_search_keeps_partial_matches(self, many_a_graph):
        # every clock read advances 0.5s, so the 5s deadline expires
        # after ~10 checks — well inside the 60-candidate scan
        context = ExecutionContext(timeout=5.0, check_every=1,
                                   clock=advancing_clock(0.5))
        results = find_matches(SINGLE_A, many_a_graph, context=context)
        assert 0 < len(results) < 60
        outcome = context.outcome()
        assert outcome.status is Outcome.TIMED_OUT
        assert outcome.steps > 0

    def test_answer_cap_terminates_inside_search(self, many_a_graph):
        context = ExecutionContext()
        [run] = match_members([many_a_graph], [SINGLE_A],
                              MatchOptions(limit=5), context=context)
        # stopped at the cap, not sliced after
        assert run.report.search.results == 5
        assert len(run.report.mappings) == 5
        assert run.report.outcome.status is Outcome.TRUNCATED
        assert context.outcome().status is Outcome.TRUNCATED

    def test_step_budget_in_matcher_pipeline(self, many_a_graph):
        matcher = GraphMatcher(many_a_graph)
        context = ExecutionContext(max_steps=10, check_every=1)
        report = matcher.match(SINGLE_A, MatchOptions(), context=context)
        assert report.outcome.status is Outcome.TRUNCATED
        assert "step budget" in report.outcome.reason
        # partial results stay on the report
        assert len(report.mappings) < 60

    def test_without_context_search_is_unbounded(self, many_a_graph):
        results = find_matches(SINGLE_A, many_a_graph)
        assert len(results) == 60

    def test_interrupted_context_stops_following_graphs(self, many_a_graph):
        from repro.storage import GraphDatabase

        database = GraphDatabase()
        from repro.core import GraphCollection

        database.register(
            "docs", GraphCollection([many_a_graph, many_a_graph.copy()])
        )
        context = ExecutionContext(max_steps=10, check_every=1)
        reports = database.match("docs", SINGLE_A, context=context)
        assert len(reports) == 1  # second graph never started


class TestDatalogCancellation:
    def test_fixpoint_cancelled_returns_partial_model(self):
        X, Y, Z = Var("X"), Var("Y"), Var("Z")
        program = Program()
        for i in range(40):
            program.fact("e", i, i + 1)
        program.add_rule(Rule(Atom("t", [X, Y]),
                              [BodyLiteral(Atom("e", [X, Y]))]))
        program.add_rule(Rule(Atom("t", [X, Z]),
                              [BodyLiteral(Atom("t", [X, Y])),
                               BodyLiteral(Atom("e", [Y, Z]))]))

        class FlippingToken(CancellationToken):
            def __init__(self, after: int) -> None:
                super().__init__()
                self.polls = 0
                self.after = after

            def is_cancelled(self) -> bool:
                self.polls += 1
                return self.polls > self.after

        context = ExecutionContext(token=FlippingToken(after=30),
                                   check_every=1)
        model = evaluate(program, context=context)
        assert context.outcome().status is Outcome.CANCELLED
        # sound but incomplete: full closure has 40*41/2 = 820 pairs
        derived = model.get("t", set())
        assert 0 < len(derived) < 820

    def test_fixpoint_complete_without_context(self):
        X, Y, Z = Var("X"), Var("Y"), Var("Z")
        program = Program()
        for i in range(10):
            program.fact("e", i, i + 1)
        program.add_rule(Rule(Atom("t", [X, Y]),
                              [BodyLiteral(Atom("e", [X, Y]))]))
        program.add_rule(Rule(Atom("t", [X, Z]),
                              [BodyLiteral(Atom("t", [X, Y])),
                               BodyLiteral(Atom("e", [Y, Z]))]))
        model = evaluate(program)
        assert len(model["t"]) == 10 * 11 // 2


class TestDegradationLadder:
    class _Broken:
        """Raises on any attribute access: a thoroughly dead index."""

        def __getattr__(self, name):
            raise RuntimeError("index structure unavailable")

    def test_broken_indexes_still_answer(self, paper_graph, triangle_pattern):
        healthy = GraphMatcher(paper_graph)
        expected = {m.nodes_tuple() if hasattr(m, "nodes_tuple") else str(m)
                    for m in healthy.match(triangle_pattern).mappings}

        broken = GraphMatcher(paper_graph)
        broken.attribute_index = self._Broken()
        broken.profile_index = self._Broken()
        report = broken.match(triangle_pattern)
        assert report.degradation  # the fallback was recorded
        assert {m.nodes_tuple() if hasattr(m, "nodes_tuple") else str(m)
                for m in report.mappings} == expected
        assert report.outcome.complete

    def test_index_build_failure_degrades_not_fails(self, paper_graph,
                                                    triangle_pattern,
                                                    monkeypatch):
        def boom(*args, **kwargs):
            raise MemoryError("no room for the index")

        monkeypatch.setattr("repro.matching.planner.AttributeIndexSet", boom)
        monkeypatch.setattr("repro.matching.planner.ProfileIndex", boom)
        matcher = GraphMatcher(paper_graph)
        assert matcher.build_errors
        report = matcher.match(triangle_pattern)
        assert any("build failed" in note for note in report.degradation)
        assert len(report.mappings) == 1  # the A1-B1-C2 triangle

    def test_no_index_matcher_matches_indexed_results(self, paper_graph,
                                                      triangle_pattern):
        indexed = GraphMatcher(paper_graph)
        bare = GraphMatcher(paper_graph, indexed=False)
        assert (len(indexed.match(triangle_pattern).mappings)
                == len(bare.match(triangle_pattern).mappings) == 1)


class TestSQLGovernance:
    def test_step_budget_aborts_with_partial_rows(self, paper_graph):
        from repro.sqlbaseline import ExecutionStats, SQLGraphMatcher

        matcher = SQLGraphMatcher(paper_graph)
        pattern = GroundPattern(clique_motif(["A", "B", "C"]))
        stats = ExecutionStats()
        context = ExecutionContext(max_steps=2, check_every=1)
        mappings = matcher.match(pattern, stats=stats, context=context)
        assert stats.aborted
        assert context.outcome().status is Outcome.TRUNCATED
        assert len(mappings) <= 1

    def test_unbudgeted_run_unchanged(self, paper_graph):
        from repro.sqlbaseline import SQLGraphMatcher

        matcher = SQLGraphMatcher(paper_graph)
        pattern = GroundPattern(clique_motif(["A", "B", "C"]))
        assert len(matcher.match(pattern)) == 1  # the A1-B1-C2 triangle


class TestProgramGovernance:
    def test_interrupted_program_returns_partial_env(self):
        from repro.datasets import tiny_dblp
        from repro.storage import GraphDatabase

        database = GraphDatabase()
        database.register("DBLP", tiny_dblp())
        source = """
            graph P { node v1 <author>; };
            for P exhaustive in doc("DBLP")
            return graph { node n <who=P.v1.name>; };
        """
        context = ExecutionContext(max_steps=1, check_every=1)
        env = database.query(source, context=context)
        assert context.outcome().status is Outcome.TRUNCATED
        assert "__result__" in env
