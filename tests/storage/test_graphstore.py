"""Unit tests for graph persistence as logical records in the store log."""

from contextlib import contextmanager

import pytest

from repro.core import AttributeTuple, Graph, GraphCollection
from repro.datasets import erdos_renyi_graph, tiny_dblp
from repro.storage import GraphDatabase, StorageError
from repro.storage.graphstore import GraphStore


def rich_graph() -> Graph:
    g = Graph("G", directed=True)
    g.tuple.set("kind", "demo")
    g.add_node("v1", tag="author", name="Ann", year=2006, score=1.5,
               active=True)
    g.add_node("v2", label="B")
    g.add_edge("v1", "v2", edge_id="e1", weight=3)
    return g


class TestRoundTrip:
    def test_single_graph(self, tmp_path):
        g = rich_graph()
        with GraphStore(str(tmp_path / "g.db")) as store:
            store.save(g)
            (loaded,) = store.load_all()
        assert loaded.equals(g)
        assert loaded.directed
        assert loaded.node("v1")["score"] == 1.5
        assert loaded.node("v1")["active"] is True

    def test_multiple_graphs(self, tmp_path):
        collection = tiny_dblp()
        with GraphStore(str(tmp_path / "c.db")) as store:
            for graph in collection:
                store.save(graph)
            loaded = store.load_all()
        assert len(loaded) == 2
        for original, back in zip(collection, loaded):
            assert back.equals(original)

    def test_reopen_file(self, tmp_path):
        path = str(tmp_path / "p.db")
        g = rich_graph()
        with GraphStore(path) as store:
            store.save(g)
        with GraphStore(path) as store:
            (loaded,) = store.load_all()
        assert loaded.equals(g)

    def test_medium_graph(self, tmp_path):
        g = erdos_renyi_graph(300, 900, seed=4)
        with GraphStore(str(tmp_path / "er.db")) as store:
            store.save(g)
            (loaded,) = store.load_all()
        assert loaded.equals(g)


class TestAttributeEdgeCases:
    """Round trips of values that break naive serializers."""

    def roundtrip(self, tmp_path, **attrs) -> Graph:
        g = Graph("edge-cases")
        g.add_node("n", **attrs)
        with GraphStore(str(tmp_path / "attrs.db")) as store:
            store.save(g)
            (loaded,) = store.load_all()
        return loaded

    def test_unicode_and_newline_strings(self, tmp_path):
        values = {
            "unicode": "gráph — ∀x∃y: ⟨x,y⟩ 🎓",
            "newlines": "line one\nline two\r\n\ttabbed",
            "quotes": 'she said "hi" \\ and left',
            "empty": "",
        }
        loaded = self.roundtrip(tmp_path, **values)
        for name, value in values.items():
            assert loaded.node("n")[name] == value

    def test_int_extremes(self, tmp_path):
        values = {
            "max64": 2 ** 63 - 1,
            "min64": -(2 ** 63),
            "negative": -42,
            "zero": 0,
        }
        loaded = self.roundtrip(tmp_path, **values)
        for name, value in values.items():
            back = loaded.node("n")[name]
            assert back == value and isinstance(back, int)

    def test_bool_is_not_int(self, tmp_path):
        """bool must be checked before int (bool subclasses int): True
        must come back as True, and 1 as 1, not each other."""
        loaded = self.roundtrip(tmp_path, flag=True, off=False, one=1, nil=0)
        node = loaded.node("n")
        assert node["flag"] is True
        assert node["off"] is False
        assert node["one"] == 1 and not isinstance(node["one"], bool)
        assert node["nil"] == 0 and not isinstance(node["nil"], bool)

    def test_float_specials(self, tmp_path):
        import math

        loaded = self.roundtrip(tmp_path, nan=float("nan"),
                                inf=float("inf"), ninf=float("-inf"),
                                tiny=5e-324, neg_zero=-0.0)
        node = loaded.node("n")
        assert math.isnan(node["nan"])
        assert node["inf"] == float("inf")
        assert node["ninf"] == float("-inf")
        assert node["tiny"] == 5e-324
        assert math.copysign(1.0, node["neg_zero"]) == -1.0

    def test_empty_graph(self, tmp_path):
        g = Graph("empty")
        with GraphStore(str(tmp_path / "empty.db")) as store:
            store.save(g)
            (loaded,) = store.load_all()
        assert loaded.num_nodes() == 0
        assert loaded.num_edges() == 0
        assert loaded.name == "empty"

    def test_durable_roundtrip_of_edge_cases(self, tmp_path):
        """The WAL-backed path preserves the same values byte-for-byte."""
        g = Graph("edge-cases")
        g.add_node("n", text="uni — ✓\nnl", big=2 ** 62, neg=-7,
                   flag=True, ratio=0.1)
        path = str(tmp_path / "durable.db")
        with GraphStore(path, fsync="never") as store:
            store.save_document("doc", [g])
        with GraphStore(path, fsync="never") as store:
            back = store.load_documents()["doc"][0]
        assert back.equals(g)
        assert back.version == g.version

    def test_large_string_attributes(self, tmp_path):
        """Values longer than a page, and than a u16 length, round-trip
        through register_durable and a reopen."""
        g = Graph("big")
        g.add_node("a", note="x" * 5000, label="A")
        g.add_node("b", blob="ü" * 35000)  # 70,000 bytes of UTF-8
        g.add_edge("a", "b", text="y" * 70000)
        path = str(tmp_path / "big.db")
        db = GraphDatabase()
        db.attach_durable(path, fsync="never")
        db.register_durable("doc", g)
        db.close_store(checkpoint=False)
        reopened = GraphDatabase()
        reopened.attach_durable(path, fsync="never")
        (back,) = reopened.doc("doc")
        assert back.equals(g) and back.version == g.version
        assert back.node("b")["blob"] == "ü" * 35000
        reopened.close_store()

    @pytest.mark.parametrize("value", [2 ** 63, -(2 ** 63) - 1, "\ud800"])
    def test_unencodable_values_raise_storage_error(self, tmp_path, value):
        g = Graph("bad")
        g.add_node("n", value=value)
        with GraphStore(str(tmp_path / "bad.db"), fsync="never") as store:
            with pytest.raises(StorageError):
                store.save(g)
            assert store.load_all() == []


def member(name: str, nodes: int) -> Graph:
    graph = Graph(name)
    for i in range(nodes):
        graph.add_node(f"v{i}", label="AB"[i % 2])
    return graph


@contextmanager
def uncompacted(path: str):
    """A store closed without compaction: its records stay as written."""
    store = GraphStore(path, fsync="never")
    try:
        yield store
    finally:
        store.close(checkpoint=False)


def record_kinds(path: str):
    """``"doc"``/``"member"`` per marker record in the store, in order."""
    with uncompacted(path) as store:
        return [event for event, _ in store.events() if event != "graph"]


def assert_same_members(loaded, expected):
    assert len(loaded) == len(expected)
    for back, graph in zip(loaded, expected):
        assert back.equals(graph) and back.version == graph.version


class TestMemberRecords:
    """A write to some members of a document persists those members."""

    def test_member_records_apply_after_a_snapshot(self, tmp_path):
        path = str(tmp_path / "m.db")
        members = [member(f"g{i}", 3) for i in range(3)]
        grown = member("g1", 5)
        renamed = member("g2-new", 1)
        with uncompacted(path) as store:
            store.save_document("doc", members)
            store.save_members("doc", [(1, grown)])
            store.save_members("doc", [(2, renamed), (1, member("g1", 6))])
        with uncompacted(path) as store:
            loaded = store.load_documents()["doc"]
        assert_same_members(loaded, [members[0], member("g1", 6), renamed])
        assert record_kinds(path) == ["doc", "member", "member", "member"]

    def test_a_snapshot_supersedes_earlier_member_records(self, tmp_path):
        path = str(tmp_path / "s.db")
        with uncompacted(path) as store:
            store.save_document("doc", [member("a", 2), member("b", 2)])
            store.save_members("doc", [(0, member("a", 9))])
            store.save_document("doc", [member("c", 1)])
        with GraphStore(path, fsync="never") as store:
            loaded = store.load_documents()["doc"]
        assert_same_members(loaded, [member("c", 1)])

    def test_a_document_marker_ends_with_its_frame(self, tmp_path):
        """A bare graph committed after a document snapshot is a document
        of its own, on load and after compaction and reopening."""
        path = str(tmp_path / "f.db")
        with uncompacted(path) as store:
            store.save_document("doc", [member("a", 2)])
            store.save(member("b", 3))
            loaded = store.load_documents()
            store.checkpoint()
        with GraphStore(path, fsync="never") as store:
            reopened = store.load_documents()
        for documents in (loaded, reopened):
            assert sorted(documents) == ["b", "doc"]
            assert_same_members(documents["doc"], [member("a", 2)])
            assert_same_members(documents["b"], [member("b", 3)])

    def test_a_member_record_needs_a_snapshot_member(self, tmp_path):
        path = str(tmp_path / "x.db")
        with uncompacted(path) as store:
            store.save_document("doc", [member("a", 2)])
            store.save_members("doc", [(1, member("b", 2))])
            with pytest.raises(StorageError):
                store.load_documents()

    def test_register_durable_writes_only_changed_members(self, tmp_path):
        path = str(tmp_path / "db.bin")
        collection = GraphCollection([member(f"g{i}", 3) for i in range(4)])
        db = GraphDatabase()
        db.attach_durable(path, fsync="never")
        db.register_durable("doc", collection)
        collection[2].add_node("w", label="A")
        db.register_durable("doc", collection)
        db.register_durable("doc", collection)  # nothing moved: no write
        collection[0].add_node("w", label="B")
        collection[3].add_node("w", label="B")
        db.register_durable("doc", collection)
        db.close_store(checkpoint=False)
        assert record_kinds(path) == ["doc", "member", "member", "member"]

        reopened = GraphDatabase()
        reopened.attach_durable(path, fsync="never")
        loaded = reopened.doc("doc")
        assert_same_members(loaded, list(collection))
        # a loaded document counts as written: one member moves, one
        # member record follows
        loaded[1].add_node("w", label="A")
        reopened.register_durable("doc", loaded)
        reopened.close_store(checkpoint=False)
        assert record_kinds(path)[-1] == "member"
        with GraphStore(path, fsync="never") as store:
            assert_same_members(store.load_documents()["doc"], list(loaded))

    @pytest.mark.parametrize("edit", ["tuple.set", "tuple.update",
                                      "node.tuple =", "edge.tuple =",
                                      "graph.tuple ="])
    def test_an_attribute_edit_is_persisted(self, tmp_path, edit):
        """Attribute writes move Graph.version like structural ones, so
        re-registering after an in-place edit persists the edited member,
        also beside another member's structural change."""
        path = str(tmp_path / "db.bin")
        collection = GraphCollection([member(f"g{i}", 3) for i in range(3)])
        for graph in collection:
            graph.add_edge("v0", "v1", bond="single")
        db = GraphDatabase()
        db.attach_durable(path, fsync="never")
        db.register_durable("doc", collection)
        edited = collection[1]
        if edit == "tuple.set":
            edited.node("v0").tuple.set("label", "Z")
        elif edit == "tuple.update":
            edited.node("v0").tuple.update({"label": "Z", "mass": 3})
        elif edit == "node.tuple =":
            edited.node("v0").tuple = AttributeTuple({"label": "Z"})
        elif edit == "edge.tuple =":
            edited.edge(edited.edge_ids()[0]).tuple = AttributeTuple(
                {"bond": "double"})
        else:
            edited.tuple = AttributeTuple({"compound": "Z"}, tag="mol")
        db.register_durable("doc", collection)
        assert record_kinds(path)[-1] == "member"
        collection[0].add_node("w", label="B")
        collection[2].node("v1").tuple.set("label", "Y")
        db.register_durable("doc", collection)
        db.close_store(checkpoint=False)
        assert record_kinds(path) == ["doc", "member", "member", "member"]

        reopened = GraphDatabase()
        reopened.attach_durable(path, fsync="never")
        assert_same_members(reopened.doc("doc"), list(collection))
        reopened.close_store()

    @pytest.mark.parametrize("change", ["add", "new collection",
                                        "every member"])
    def test_anything_else_writes_a_full_snapshot(self, tmp_path, change):
        path = str(tmp_path / "db.bin")
        collection = GraphCollection([member(f"g{i}", 3) for i in range(3)])
        db = GraphDatabase()
        db.attach_durable(path, fsync="never")
        db.register_durable("doc", collection)
        collection[0].add_node("w")
        if change == "add":
            collection.add(member("g3", 2))
        elif change == "new collection":
            collection = GraphCollection(list(collection))
        else:
            for graph in list(collection)[1:]:
                graph.add_node("w")
        db.register_durable("doc", collection)
        db.close_store(checkpoint=False)
        assert record_kinds(path) == ["doc", "doc"]
        with GraphStore(path, fsync="never") as store:
            assert_same_members(store.load_documents()["doc"],
                                list(collection))

    @pytest.mark.parametrize("mutate", [False, True])
    def test_compaction_keeps_what_was_registered(self, tmp_path, mutate):
        """Compaction writes the documents as last registered, never a
        member changed in place but not re-registered."""
        path = str(tmp_path / "db.bin")
        collection = GraphCollection([member(f"g{i}", 3) for i in range(3)])
        db = GraphDatabase()
        db.attach_durable(path, fsync="never")
        db.register_durable("doc", collection)
        collection[1].add_node("w", label="A")
        db.register_durable("doc", collection)
        registered = [graph.copy() for graph in collection]
        versions = [graph.version for graph in collection]
        if mutate:
            collection[2].add_node("unregistered")
        assert db.checkpoint() > 0
        db.close_store(checkpoint=False)
        with uncompacted(path) as store:
            assert len(store.wal.frames()) == 1
            loaded = list(store.load_documents()["doc"])
        assert [graph.version for graph in loaded] == versions
        assert all(back.equals(graph)
                   for back, graph in zip(loaded, registered))
