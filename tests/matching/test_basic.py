"""Unit tests for Algorithm 4.1 (basic graph pattern matching)."""

import pytest

from repro.core import Graph, GroundPattern
from repro.core.motif import SimpleMotif, clique_motif, cycle_motif, path_motif
from repro.core.predicate import AttrRef, BinOp, Literal
from repro.matching import (
    SearchCounters,
    brute_force_matches,
    find_matches,
    scan_feasible_mates,
)


def ref(path):
    return AttrRef(tuple(path.split(".")))


class TestFeasibleMates:
    def test_scan_by_label(self, paper_graph, triangle_pattern):
        space = scan_feasible_mates(triangle_pattern, paper_graph)
        assert space == {
            "u1": ["A1", "A2"],
            "u2": ["B1", "B2"],
            "u3": ["C1", "C2"],
        }


class TestSearch:
    def test_triangle_match(self, paper_graph, triangle_pattern):
        matches = find_matches(triangle_pattern, paper_graph)
        assert len(matches) == 1
        assert matches[0].nodes == {"u1": "A1", "u2": "B1", "u3": "C2"}

    def test_edge_assignment_recorded(self, paper_graph, triangle_pattern):
        (match,) = find_matches(triangle_pattern, paper_graph)
        assert len(match.edges) == 3
        for edge_name, edge_id in match.edges.items():
            edge = paper_graph.edge(edge_id)
            motif_edge = triangle_pattern.motif.edge(edge_name)
            endpoints = {match.nodes[motif_edge.source],
                         match.nodes[motif_edge.target]}
            assert {edge.source, edge.target} == endpoints

    def test_first_match_only(self, paper_graph):
        motif = SimpleMotif()
        motif.add_node("u", attrs={"label": "B"})
        pattern = GroundPattern(motif)
        assert len(find_matches(pattern, paper_graph, exhaustive=False)) == 1
        assert len(find_matches(pattern, paper_graph, exhaustive=True)) == 2

    def test_limit(self, paper_graph):
        motif = SimpleMotif()
        motif.add_node("u")
        pattern = GroundPattern(motif)
        assert len(find_matches(pattern, paper_graph, limit=3)) == 3

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_is_refused(self, paper_graph, limit):
        # the cap was tested only after the first append, so limit=0
        # used to return one mapping
        motif = SimpleMotif()
        motif.add_node("u")
        with pytest.raises(ValueError, match="limit must be at least 1"):
            find_matches(GroundPattern(motif), paper_graph, limit=limit)

    def test_injectivity(self):
        """Two same-label pattern nodes cannot map to the same data node."""
        graph = Graph()
        graph.add_node("x", label="A")
        motif = SimpleMotif()
        motif.add_node("u1", attrs={"label": "A"})
        motif.add_node("u2", attrs={"label": "A"})
        assert len(find_matches(GroundPattern(motif), graph)) == 0

    def test_path_in_cycle(self):
        graph = cycle_motif(5).to_graph()
        pattern = GroundPattern(path_motif(2))
        # every node is the middle of exactly one path, times 2 directions,
        # times 5 starting positions => 10 mappings
        assert len(find_matches(pattern, graph)) == 10

    def test_no_match_when_edge_missing(self):
        graph = Graph()
        graph.add_node("x", label="A")
        graph.add_node("y", label="B")
        pattern = GroundPattern(clique_motif(["A", "B"]))
        assert len(find_matches(pattern, graph)) == 0

    def test_initial_assignment_pins_node(self, paper_graph, triangle_pattern):
        matches = find_matches(triangle_pattern, paper_graph,
                               initial={"u1": "A1"})
        assert len(matches) == 1
        bad = find_matches(triangle_pattern, paper_graph, initial={"u1": "A2"})
        assert len(bad) == 0

    def test_initial_assignment_respects_label(self, paper_graph, triangle_pattern):
        assert len(find_matches(triangle_pattern, paper_graph,
                                initial={"u1": "B1"})) == 0

    def test_invalid_order_rejected(self, paper_graph, triangle_pattern):
        with pytest.raises(ValueError):
            find_matches(triangle_pattern, paper_graph, order=["u1"])

    def test_counters(self, paper_graph, triangle_pattern):
        counters = SearchCounters()
        find_matches(triangle_pattern, paper_graph, counters=counters)
        assert counters.results == 1
        assert counters.candidates_tried >= 3
        assert counters.check_calls >= 3


class TestDirectedMatching:
    def test_direction_respected(self):
        graph = Graph(directed=True)
        graph.add_node("a", label="A")
        graph.add_node("b", label="B")
        graph.add_edge("a", "b")
        forward = SimpleMotif()
        forward.add_node("u", attrs={"label": "A"})
        forward.add_node("w", attrs={"label": "B"})
        forward.add_edge("u", "w")
        assert len(find_matches(GroundPattern(forward), graph)) == 1
        backward = SimpleMotif()
        backward.add_node("u", attrs={"label": "A"})
        backward.add_node("w", attrs={"label": "B"})
        backward.add_edge("w", "u")
        assert len(find_matches(GroundPattern(backward), graph)) == 0


class TestSelfLoops:
    def test_pattern_self_loop(self):
        graph = Graph()
        graph.add_node("x", label="A")
        graph.add_node("y", label="A")
        graph.add_edge("x", "x")
        motif = SimpleMotif()
        motif.add_node("u", attrs={"label": "A"})
        motif.add_edge("u", "u")
        matches = find_matches(GroundPattern(motif), graph)
        assert [m.nodes["u"] for m in matches] == ["x"]


class TestEdgePredicates:
    def test_edge_predicate_enforced(self):
        graph = Graph()
        graph.add_node("a")
        graph.add_node("b")
        graph.add_node("c")
        graph.add_edge("a", "b", weight=5)
        graph.add_edge("b", "c", weight=1)
        motif = SimpleMotif()
        motif.add_node("u")
        motif.add_node("w")
        motif.add_edge("u", "w", name="e",
                       predicate=BinOp(">", ref("weight"), Literal(3)))
        matches = find_matches(GroundPattern(motif), graph)
        assert len(matches) == 2  # a-b in both directions
        assert all(set(m.nodes.values()) == {"a", "b"} for m in matches)


class TestBruteForceAgreement:
    def test_agrees_on_paper_example(self, paper_graph, triangle_pattern):
        fast = {frozenset(m.nodes.items())
                for m in find_matches(triangle_pattern, paper_graph)}
        slow = {frozenset(m.nodes.items())
                for m in brute_force_matches(triangle_pattern, paper_graph)}
        assert fast == slow
