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
    def test_range_predicate_uses_sorted_keys(self):
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


def indexed_and_scanned(graph, predicate=None, attrs=None):
    """The feasible mates of one pattern node, by index and by scan."""
    motif = SimpleMotif()
    motif.add_node("u", attrs=attrs, predicate=predicate)
    pattern = GroundPattern(motif)
    indexed = retrieve_feasible_mates(pattern, graph,
                                      attribute_index=AttributeIndexSet(graph))
    return indexed["u"], retrieve_feasible_mates(pattern, graph)["u"]


class TestIndexedEqualsScan:
    """Index keys follow F_u's ``==`` and ``<``: the index may not drop a
    node the scan keeps."""

    def test_bool_int_and_float_are_one_key(self):
        g = Graph()
        g.add_node("a", flag=1)
        g.add_node("b", flag=True)
        g.add_node("c", flag=1.0)
        g.add_node("d", flag="1")
        for attrs, predicate in (
                ({"flag": 1}, None),
                ({"flag": True}, None),
                (None, BinOp(">=", ref("flag"), Literal(1))),
                (None, BinOp(">", Literal(2), ref("flag")))):
            indexed, scanned = indexed_and_scanned(g, predicate, attrs)
            assert scanned == ["a", "b", "c"]
            assert indexed == scanned

    def test_nan_values_do_not_hide_answers(self):
        g = Graph()
        for i, year in enumerate([2001, float("nan"), 1999, 2003.5,
                                  float("nan"), 2000, 1998.0, 2002]):
            g.add_node(f"n{i}", year=year)
        for op in (">", ">=", "<", "<=", "=="):
            for bound in (1997, 1999, 2000.0, 2002, 2004, float("nan")):
                predicate = BinOp(op, ref("year"), Literal(bound))
                indexed, scanned = indexed_and_scanned(g, predicate)
                assert sorted(indexed) == sorted(scanned), (op, bound)


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
