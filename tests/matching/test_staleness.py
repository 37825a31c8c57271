"""Index staleness: matchers follow graph mutations automatically."""

import copy

from repro.core import AttributeTuple, Graph, GroundPattern, clique_motif
from repro.matching import GraphMatcher, optimized_options


class TestVersioning:
    def test_version_bumps_on_mutations(self):
        g = Graph()
        v0 = g.version
        g.add_node("a")
        assert g.version > v0
        v1 = g.version
        g.add_node("b")
        g.add_edge("a", "b", edge_id="e1")
        assert g.version > v1
        v2 = g.version
        g.remove_edge("e1")
        assert g.version > v2
        v3 = g.version
        g.remove_node("b")
        assert g.version > v3

    def test_version_bumps_on_attribute_writes(self):
        g = Graph()
        node = g.add_node("a", label="A")
        g.add_node("b")
        edge = g.add_edge("a", "b")
        writes = [
            lambda: node.tuple.set("label", "B"),
            lambda: node.tuple.update({"label": "C", "w": 1}),
            lambda: setattr(node, "tuple", AttributeTuple({"label": "D"})),
            lambda: node.tuple.set("label", "E"),  # the new tuple is owned
            lambda: setattr(edge, "tuple", AttributeTuple({"w": 2})),
            lambda: edge.tuple.set("w", 3),
            lambda: g.tuple.set("year", 2008),
            lambda: setattr(g, "tuple", AttributeTuple({"year": 2009})),
            lambda: g.tuple.set("year", 2010),
        ]
        for write in writes:
            before = g.version
            write()
            assert g.version > before
        assert node["label"] == "E" and edge["w"] == 3 and g["year"] == 2010

    def test_each_graph_owns_its_own_tuples(self):
        """A write through a copy bumps the copy alone, and a tuple
        another graph owns is copied when a second graph adopts it."""
        g = Graph()
        g.add_node("a", label="A")
        for twin in (g.copy(), copy.deepcopy(g)):
            before, twin_before = g.version, twin.version
            twin.node("a").tuple.set("label", "B")
            assert g.version == before and twin.version > twin_before
            assert g.node("a")["label"] == "A"
        other = Graph()
        other.add_node("x")
        other.node("x").tuple = g.node("a").tuple
        assert other.node("x").tuple is not g.node("a").tuple
        before = g.version
        other.node("x").tuple.set("label", "Z")
        assert g.version == before and g.node("a")["label"] == "A"


class TestMatcherRefresh:
    def test_new_data_visible_after_mutation(self, paper_graph):
        matcher = GraphMatcher(paper_graph)
        pattern = GroundPattern(clique_motif(["A", "B", "C"]))
        assert len(matcher.match(pattern, optimized_options()).mappings) == 1
        # plant a second labeled triangle
        paper_graph.add_node("A3", label="A")
        paper_graph.add_node("B3", label="B")
        paper_graph.add_node("C3", label="C")
        paper_graph.add_edge("A3", "B3")
        paper_graph.add_edge("B3", "C3")
        paper_graph.add_edge("C3", "A3")
        report = matcher.match(pattern, optimized_options())
        assert len(report.mappings) == 2

    def test_removed_data_disappears(self, paper_graph):
        matcher = GraphMatcher(paper_graph)
        pattern = GroundPattern(clique_motif(["A", "B", "C"]))
        assert matcher.match(pattern).mappings
        paper_graph.remove_edge(
            paper_graph.edge_between("A1", "C2").id
        )
        assert len(matcher.match(pattern).mappings) == 0

    def test_refresh_is_noop_without_mutation(self, paper_graph):
        matcher = GraphMatcher(paper_graph)
        assert not matcher.refresh()
        paper_graph.add_node("zzz")
        assert matcher.refresh()
        assert not matcher.refresh()
