"""Unit tests for feasible-mate retrieval variants (Section 4.2)."""

import pytest

from repro.core import Graph, GroundPattern
from repro.core.motif import SimpleMotif
from repro.core.predicate import AttrRef, BinOp, Literal
from repro.index import AttributeIndexSet, ProfileIndex
from repro.matching import RetrievalStats, retrieve_feasible_mates


def ref(path):
    return AttrRef(tuple(path.split(".")))


def year_graph() -> Graph:
    g = Graph()
    for i, year in enumerate([1998, 2002, 2005, 2008, 2011]):
        g.add_node(f"n{i}", label="paper", year=year)
    g.add_edge("n0", "n1")
    g.add_edge("n1", "n2")
    return g


class TestIndexDrivenRetrieval:
    def test_range_predicate_uses_btree(self):
        g = year_graph()
        index = AttributeIndexSet(g)
        motif = SimpleMotif()
        motif.add_node("u", predicate=BinOp(">", ref("year"), Literal(2004)))
        pattern = GroundPattern(motif)
        stats = RetrievalStats()
        space = retrieve_feasible_mates(pattern, g, attribute_index=index,
                                        stats=stats)
        assert sorted(space["u"]) == ["n2", "n3", "n4"]
        assert stats.method["u"] != "scan"
        # only the indexed candidates were scanned, not all 5 nodes
        assert stats.scanned["u"] == 3

    def test_label_hash_fallback(self, paper_graph):
        profile_index = ProfileIndex(paper_graph, radius=1)
        motif = SimpleMotif()
        motif.add_node("u", attrs={"label": "B"})
        pattern = GroundPattern(motif)
        stats = RetrievalStats()
        space = retrieve_feasible_mates(
            pattern, paper_graph, profile_index=profile_index, stats=stats
        )
        assert sorted(space["u"]) == ["B1", "B2"]
        assert stats.method["u"] != "scan"

    def test_full_scan_when_nothing_indexable(self, paper_graph):
        motif = SimpleMotif()
        motif.add_node("u")
        pattern = GroundPattern(motif)
        stats = RetrievalStats()
        space = retrieve_feasible_mates(pattern, paper_graph, stats=stats)
        assert len(space["u"]) == 6
        assert stats.method["u"] == "scan"

    def test_index_retrieval_still_applies_full_fu(self):
        """Index gives a superset; the exact F_u check must still run."""
        g = year_graph()
        index = AttributeIndexSet(g, attributes=["label"])
        motif = SimpleMotif()
        motif.add_node(
            "u",
            attrs={"label": "paper"},
            predicate=BinOp("<", ref("year"), Literal(2000)),
        )
        pattern = GroundPattern(motif)
        space = retrieve_feasible_mates(pattern, g, attribute_index=index)
        assert space["u"] == ["n0"]


class TestValidation:
    def test_unknown_strategy(self, paper_graph, triangle_pattern):
        with pytest.raises(ValueError):
            retrieve_feasible_mates(triangle_pattern, paper_graph,
                                    local="magic")

    def test_radius_mismatch(self, paper_graph, triangle_pattern):
        profile_index = ProfileIndex(paper_graph, radius=1)
        with pytest.raises(ValueError):
            retrieve_feasible_mates(
                triangle_pattern, paper_graph,
                profile_index=profile_index, local="profile", radius=2,
            )

    def test_radius_zero_profiles_equal_labels(self, paper_graph,
                                               triangle_pattern):
        space_none = retrieve_feasible_mates(triangle_pattern, paper_graph,
                                             local="none")
        space_r0 = retrieve_feasible_mates(triangle_pattern, paper_graph,
                                           local="profile", radius=0)
        assert space_none == space_r0

    def test_radius_two_subgraph_prunes_monotonically(self, paper_graph,
                                                      triangle_pattern):
        """The exact subgraph test only gets stronger with radius."""
        r1 = retrieve_feasible_mates(triangle_pattern, paper_graph,
                                     local="subgraph", radius=1)
        r2 = retrieve_feasible_mates(triangle_pattern, paper_graph,
                                     local="subgraph", radius=2)
        for name in triangle_pattern.node_names():
            assert set(r2[name]) <= set(r1[name])
