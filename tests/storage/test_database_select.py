"""Tests for database-level selection and its label-path filter state."""

from repro.core import Graph, GraphCollection
from repro.core import select as scan_select
from repro.datasets import (
    benzene_ring_pattern,
    erdos_renyi_graph,
    molecule_collection,
    ring_with_side_chain_pattern,
    tiny_dblp,
)
from repro.lang.compiler import compile_pattern_text
from repro.matching import MatchOptions
from repro.matching.planner import SMALL_MEMBER_NODES
from repro.runtime import ExecutionContext, Outcome
from repro.storage import GraphDatabase
from tests.service.reference import answer_rows


class TestDatabaseSelect:
    def test_large_collection_gets_index(self):
        """The filter state is per member, on its cached matcher."""
        db = GraphDatabase()
        collection = molecule_collection(num_molecules=80, seed=2)
        db.register("mols", collection)
        index = db.collection_index_for("mols")
        assert len(index) == len(collection)
        for graph, paths in zip(collection, index):
            small = graph.num_nodes() < SMALL_MEMBER_NODES
            assert (paths is None) == (not small)
            if small:
                assert sum(count for feature, count in paths.items()
                           if len(feature) == 1) == graph.num_nodes()
        # cached: the same counters come back
        again = db.collection_index_for("mols")
        assert all(a is b for a, b in zip(index, again))

    def test_small_collection_scans(self):
        """A pattern without a label constraint filters nothing: every
        member is matched."""
        db = GraphDatabase()
        db.register("d", tiny_dblp())
        assert len(db.collection_index_for("d")) == 2
        result = db.select("d", "graph P { node v <author name=\"A\">; }")
        assert len(result) == 2  # A appears in both papers

    def test_indexed_select_equals_scan(self):
        db = GraphDatabase()
        collection = molecule_collection(num_molecules=80, seed=2)
        db.register("mols", collection)
        for pattern in (benzene_ring_pattern(),
                        ring_with_side_chain_pattern("S")):
            indexed = db.select("mols", pattern, exhaustive=False)
            scanned = scan_select(collection, pattern, exhaustive=False)
            assert len(indexed) == len(scanned)

    def test_reregister_rebuilds_index(self):
        db = GraphDatabase()
        db.register("mols", molecule_collection(num_molecules=80, seed=2))
        first = db.collection_index_for("mols")
        db.register("mols", molecule_collection(num_molecules=80, seed=3))
        second = db.collection_index_for("mols")
        assert first is not second


def reopen(path):
    """A fresh database over the durable store at *path*."""
    database = GraphDatabase()
    database.attach_durable(path, fsync="never")
    return database


class TestDatabasePersistence:
    """Persistence is the durable store: what ``register_durable`` wrote
    is every document a reopened database sees."""

    def test_save_all_and_open(self, tmp_path, paper_graph):
        path = tmp_path / "db.store"
        db = reopen(path)
        db.register_durable("dblp", tiny_dblp())
        db.register_durable("net", paper_graph)
        db.close_store()
        reopened = reopen(path)
        assert sorted(reopened.names()) == ["dblp", "net"]
        assert len(reopened.doc("dblp")) == 2
        assert len(reopened.doc("net")) == 1
        assert reopened.doc("net")[0].equals(paper_graph)
        reopened.close_store()

    def test_directedness_preserved(self, tmp_path):
        from repro.core import Graph

        g = Graph("d", directed=True)
        g.add_node("a")
        g.add_node("b")
        g.add_edge("a", "b")
        path = tmp_path / "db.store"
        db = reopen(path)
        db.register_durable("dir", g)
        db.close_store()
        reopened = reopen(path)
        back = reopened.doc("dir")[0]
        assert back.directed
        assert back.has_edge("a", "b") and not back.has_edge("b", "a")
        reopened.close_store()


def answers(collection):
    return sorted((m.graph.name, sorted(m.mapping.nodes.items()))
                  for m in collection)


def served(db, document, pattern, **kwargs):
    return sorted((name, sorted(mapping.nodes.items()))
                  for name, report in db.match(document, pattern,
                                               **kwargs).items()
                  for mapping in report.mappings)


class TestOneSelectionOperator:
    """``select`` and ``match`` used to be separate loops that disagreed."""

    XX_BOND = ('graph P { node a <label="X">; node b <label="X">; '
               'edge e (a, b); }')

    def test_select_sees_an_in_place_write(self):
        """The path features of the members written in place, and only
        theirs, are recounted when the same collection object is
        re-registered; the written members then pass the filter."""
        db = GraphDatabase()
        collection = molecule_collection(num_molecules=40, seed=2)
        db.register("mols", collection)
        assert answers(db.select("mols", self.XX_BOND)) == served(
            db, "mols", self.XX_BOND) == []
        stale = db.collection_index_for("mols")
        for graph in (collection[3], collection[17]):
            graph.add_node("x1", label="X")
            graph.add_node("x2", label="X")
            graph.add_edge("x1", "x2", bond="single")
            graph.add_edge(graph.node_ids()[0], "x1", bond="single")
        db.register("mols", collection)
        fresh = db.collection_index_for("mols")
        assert [position for position, (before, after)
                in enumerate(zip(stale, fresh)) if before is not after] == [
                    3, 17]
        assert all(paths[("X", "X")] == 1 for paths in (fresh[3], fresh[17]))
        after = answers(db.select("mols", self.XX_BOND, exhaustive=False))
        assert [name for name, _ in after] == ["mol17", "mol3"]
        assert after == served(db, "mols", self.XX_BOND,
                               options=MatchOptions(exhaustive=False))

    def test_indexed_select_is_governed(self):
        """A budget reaches the verify searches of the filter+verify
        path: partial collection, non-COMPLETE outcome."""
        db = GraphDatabase()
        db.register("mols", molecule_collection(num_molecules=80, seed=2))
        pattern = ring_with_side_chain_pattern("C")
        everything = db.select("mols", pattern)
        context = ExecutionContext(max_steps=5)
        partial = db.select("mols", pattern, context=context)
        assert context.outcome().status is Outcome.TRUNCATED
        assert len(partial) < len(everything)
        served_context = ExecutionContext(max_steps=5)
        db.match("mols", pattern, context=served_context)
        assert served_context.outcome().status is Outcome.TRUNCATED

    def test_first_match_mode_is_one_mapping_per_graph(self):
        """``exhaustive=False`` caps a graph's derivations together."""
        either = compile_pattern_text(
            'graph P { { node u <label="C">; } | { node u <label="N">; } }')
        assert len(either.ground()) == 2
        db = GraphDatabase()
        collection = molecule_collection(num_molecules=40, seed=2)
        db.register("mols", collection)
        both = sum(
            1 for graph in collection
            if {"C", "N"} & {node.label for node in graph.nodes()})
        assert both == len(collection)
        assert len(scan_select(collection, either, exhaustive=False)) == both
        assert len(db.select("mols", either, exhaustive=False)) == both
        assert len(served(db, "mols", either,
                          options=MatchOptions(exhaustive=False))) == both

    def test_members_sharing_a_name_keep_every_row(self):
        """A repeated member name is keyed by position, so no member's
        report overwrites another's on the served path."""
        members = []
        for _ in range(2):
            graph = Graph("G")
            graph.add_node("a", label="A")
            members.append(graph)
        db = GraphDatabase()
        db.register("d", GraphCollection(members))
        pattern = 'graph P { node v <label="A">; }'
        rows = answer_rows(db.execute("d", pattern).blocks)
        assert len(rows) == len(db.select("d", pattern)) == 2
        assert [row["graph"] for row in rows] == ["G", "G#1"]

    def test_a_renamed_member_does_not_take_a_later_members_name(self):
        """Members named ``g``, ``g#2``, ``g``: the second ``g`` is
        renamed to a name no member holds, so all three answers stay."""
        members = []
        for name in ("g", "g#2", "g"):
            graph = Graph(name)
            graph.add_node("a", label="A")
            members.append(graph)
        db = GraphDatabase()
        db.register("d", GraphCollection(members))
        pattern = 'graph P { node v <label="A">; }'
        reports = db.match("d", pattern)
        assert {name: len(report.mappings)
                for name, report in reports.items()} == {
                    "g": 1, "g#2": 1, "g#2#2": 1}
        rows = answer_rows(db.execute("d", pattern).blocks)
        assert [row["graph"] for row in rows] == ["g", "g#2", "g#2#2"]

    def test_a_merged_report_counts_every_derivation(self):
        """A disjunctive pattern's report adds up each block's search and
        refinement work (levels: the deepest block's)."""
        blocks = ['node u <label="L000">; node v <label="L001">; '
                  'edge e (u, v);',
                  'node u <label="L001">; node v <label="L001">; '
                  'edge e (u, v);']
        db = GraphDatabase()
        db.register("g", GraphCollection([erdos_renyi_graph(
            2 * SMALL_MEMBER_NODES, 120, num_labels=2, seed=4, name="g")]))
        (report,) = db.match("g", "graph P { %s }" % " | ".join(
            "{ %s }" % block for block in blocks)).values()
        alone = [next(iter(db.match("g", "graph P { %s }" % block).values()))
                 for block in blocks]
        assert report.search.results == len(report.mappings) == sum(
            len(block.mappings) for block in alone)
        for counter in ("candidates_tried", "check_calls", "partial_states"):
            assert getattr(report.search, counter) == sum(
                getattr(block.search, counter) for block in alone)
        assert report.refinement.pairs_checked == sum(
            block.refinement.pairs_checked for block in alone)
        assert report.refinement.levels_run == max(
            block.refinement.levels_run for block in alone)
