"""Unit tests for serialization and the database facade."""

import pytest

from repro.core import Graph, GraphCollection
from repro.datasets import dblp_collection, tiny_dblp
from repro.matching import optimized_options
from repro.storage import (
    GraphDatabase,
    collection_from_text,
    collection_to_text,
    graph_from_text,
    graph_to_text,
    load_collection,
    save_collection,
)


def rich_graph() -> Graph:
    g = Graph("G")
    g.tuple.set("kind", "demo")
    g.add_node("v1", tag="author", name="A", year=2006)
    g.add_node("v2", label="B")
    g.add_edge("v1", "v2", edge_id="e1", weight=3)
    return g


class TestSerialization:
    def test_graph_round_trip(self):
        g = rich_graph()
        assert graph_from_text(graph_to_text(g)).equals(g)

    def test_string_escaping(self):
        g = Graph("G")
        g.add_node("v1", text='quote " and \\ backslash')
        assert graph_from_text(graph_to_text(g)).equals(g)

    def test_collection_round_trip(self):
        c = dblp_collection(num_papers=10, seed=3)
        text = collection_to_text(c)
        back = collection_from_text(text)
        assert len(back) == len(c)
        for original, parsed in zip(c, back):
            assert original.equals(parsed)

    def test_collection_file_round_trip(self, tmp_path):
        path = tmp_path / "dblp.gql"
        c = tiny_dblp()
        save_collection(c, path)
        back = load_collection(path)
        assert len(back) == 2
        assert back[0].equals(c[0])

    def test_collection_rejects_non_graph_statements(self):
        with pytest.raises(ValueError):
            collection_from_text('C := graph {};')


class TestGraphDatabase:
    def test_register_and_doc(self):
        db = GraphDatabase()
        db.register("D", tiny_dblp())
        assert len(db.doc("D")) == 2
        assert db.names() == ["D"]

    def test_register_single_graph(self, paper_graph):
        db = GraphDatabase()
        db.register("net", paper_graph)
        assert len(db.doc("net")) == 1

    def test_unknown_doc(self):
        with pytest.raises(KeyError):
            GraphDatabase().doc("nope")

    def test_reregistering_a_document_drops_its_old_matchers(self):
        """Matchers hold their graph, statistics and indexes: replacing
        a collection must not keep the replaced one's alive."""
        from repro.datasets import erdos_renyi_graph
        from repro.matching.planner import SMALL_MEMBER_NODES

        database = GraphDatabase()
        for seed in range(20):
            # members big enough to get a cached, indexed matcher
            fresh = GraphCollection([
                erdos_renyi_graph(SMALL_MEMBER_NODES, 30, num_labels=3,
                                  seed=100 * seed + member)
                for member in range(32)])
            database.register("mols", fresh)
            database.match("mols", 'graph P { node a <label="L000">; }')
            assert len(database._matchers) == len(fresh)
        # re-registering the same (mutated-in-place) collection keeps
        # its matchers: they refresh themselves by Graph.version
        kept = dict(database._matchers)
        database.register("mols", fresh)
        assert database._matchers == kept

    def test_match_with_pattern_text(self, paper_graph):
        db = GraphDatabase()
        db.register("net", paper_graph)
        reports = db.match("net", """
            graph P { node u1 <label="A">; node u2 <label="B">;
                      edge e1 (u1, u2); }
        """, optimized_options())
        assert set(reports) == {"G"}
        assert len(reports["G"].mappings) == 2  # A1-B1 (x1) ... check below

    def test_matcher_cached(self, triangle_pattern):
        from repro.datasets import erdos_renyi_graph

        graph = erdos_renyi_graph(60, 120, num_labels=3, seed=1)
        db = GraphDatabase()
        db.register("net", graph)
        db.match("net", triangle_pattern)
        (first,) = db._matchers.values()
        assert first.graph is graph
        db.select("net", triangle_pattern)
        assert list(db._matchers.values()) == [first]

    def test_save_and_load(self, tmp_path):
        db = GraphDatabase()
        db.register("D", tiny_dblp())
        path = tmp_path / "d.gql"
        save_collection(db.doc("D"), path)
        db2 = GraphDatabase()
        db2.load("D", path)
        assert len(db2.doc("D")) == 2

    def test_query_end_to_end(self):
        db = GraphDatabase()
        db.register("DBLP", tiny_dblp())
        env = db.query("""
            graph P { node v1 <author>; node v2 <author>; };
            C := graph {};
            for P exhaustive in doc("DBLP")
            let C := graph {
              graph C;
              node P.v1, P.v2;
              edge e1 (P.v1, P.v2);
              unify P.v1, C.v1 where P.v1.name=C.v1.name;
              unify P.v2, C.v2 where P.v2.name=C.v2.name;
            }
        """)
        assert env["C"].num_nodes() == 4
        assert env["C"].num_edges() == 4
