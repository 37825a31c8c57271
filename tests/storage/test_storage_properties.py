"""Property tests: serialization and the durable store round-trip any graph."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Graph
from repro.storage import graph_from_text, graph_to_text
from repro.storage.graphstore import GraphStore

_NAMES = ["alpha", "beta_2", "g", "x9"]


def random_graph(rng: random.Random) -> Graph:
    graph = Graph(rng.choice(_NAMES), directed=rng.random() < 0.3)
    if rng.random() < 0.5:
        graph.tuple.set("kind", rng.choice(["a", "b"]))
    for i in range(rng.randint(0, 8)):
        attrs = {}
        if rng.random() < 0.8:
            attrs["label"] = rng.choice("ABC")
        if rng.random() < 0.4:
            attrs["year"] = rng.randint(1990, 2010)
        if rng.random() < 0.3:
            attrs["score"] = round(rng.random() * 10, 3)
        if rng.random() < 0.2:
            attrs["note"] = 'tri"cky \\ text'
        tag = rng.choice([None, "author", "protein"])
        node = graph.add_node(f"n{i}", tag=tag)
        node.tuple.update(attrs)
    ids = graph.node_ids()
    if len(ids) >= 2:
        for _ in range(rng.randint(0, 12)):
            a, b = rng.choice(ids), rng.choice(ids)
            if a != b and not graph.has_edge(a, b):
                from repro.core.tuples import AttributeTuple

                tag = rng.choice([None, "friend", "bond"])
                edge = graph.add_edge(a, b)
                attrs = {"w": rng.randint(1, 9)} if rng.random() < 0.4 else {}
                edge.tuple = AttributeTuple(attrs, tag=tag)
    return graph


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_text_round_trip(seed):
    graph = random_graph(random.Random(seed))
    assert graph_from_text(graph_to_text(graph),
                           directed=graph.directed).equals(graph)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_store_round_trip(tmp_path_factory, seed):
    """Any graph survives a save, a compaction and a reopen."""
    rng = random.Random(seed)
    graphs = [random_graph(rng) for _ in range(rng.randint(1, 3))]
    tmp = tmp_path_factory.mktemp("gs")
    path = str(tmp / "store.db")
    with GraphStore(path, fsync="never") as store:
        for i, graph in enumerate(graphs):
            store.save_document(f"doc{i}", [graph])
    with GraphStore(path, fsync="never") as store:
        documents = store.load_documents()
    assert len(documents) == len(graphs)
    for i, original in enumerate(graphs):
        (back,) = documents[f"doc{i}"]
        assert back.equals(original), original.name
        assert back.version == original.version
