"""Tests for networkx interoperability."""

import networkx as nx

from repro.core import Graph, GroundPattern
from repro.core.motif import clique_motif
from repro.matching import GraphMatcher, optimized_options

from tests.interop import from_networkx, to_networkx


class TestToNetworkx:
    def test_basic_conversion(self, paper_graph):
        nxg = to_networkx(paper_graph)
        assert nxg.number_of_nodes() == 6
        assert nxg.number_of_edges() == 6
        assert nxg.nodes["A1"]["label"] == "A"
        assert not nxg.is_directed()

    def test_directed(self):
        g = Graph(directed=True)
        g.add_node("a")
        g.add_node("b")
        g.add_edge("a", "b")
        nxg = to_networkx(g)
        assert nxg.is_directed()
        assert nxg.has_edge("a", "b") and not nxg.has_edge("b", "a")

    def test_tags_preserved(self):
        g = Graph("G")
        g.add_node("v", tag="author", name="X")
        nxg = to_networkx(g)
        assert nxg.nodes["v"]["__tag__"] == "author"


class TestFromNetworkx:
    def test_round_trip(self, paper_graph):
        back = from_networkx(to_networkx(paper_graph), name="G")
        assert back.equals(paper_graph)

    def test_numeric_node_ids_coerced(self):
        nxg = nx.path_graph(3)
        g = from_networkx(nxg)
        assert set(g.node_ids()) == {"0", "1", "2"}
        assert g.has_edge("0", "1")

    def test_non_scalar_attrs_skipped(self):
        nxg = nx.Graph()
        nxg.add_node("a", label="A", vector=[1, 2, 3])
        g = from_networkx(nxg)
        assert g.node("a")["label"] == "A"
        assert g.node("a").get("vector") is None

    def test_query_over_networkx_data(self):
        """End to end: build in networkx, query with GraphQL."""
        nxg = nx.Graph()
        for node, label in [(1, "A"), (2, "B"), (3, "C"), (4, "A")]:
            nxg.add_node(node, label=label)
        nxg.add_edges_from([(1, 2), (2, 3), (3, 1), (4, 2)])
        g = from_networkx(nxg)
        matcher = GraphMatcher(g)
        report = matcher.match(GroundPattern(clique_motif(["A", "B", "C"])),
                               optimized_options())
        assert len(report.mappings) == 1
        assert report.mappings[0].nodes["u1"] == "1"

    def test_famous_graph(self):
        """Zachary's karate club loads and is queryable."""
        g = from_networkx(nx.karate_club_graph())
        assert g.num_nodes() == 34
        from repro.core.motif import cycle_motif

        matcher = GraphMatcher(g)
        report = matcher.match(GroundPattern(cycle_motif(3)),
                               optimized_options(limit=10))
        assert report.mappings  # the club has triangles
