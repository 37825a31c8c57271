"""Tests for whole-graph isomorphism."""

import random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Graph
from repro.core.motif import cycle_motif, path_motif

from tests.interop import from_networkx
from tests.isomorphism import (
    deduplicate_isomorphic,
    isomorphic,
    isomorphism_mapping,
)


def labeled(edges, labels):
    g = Graph()
    for node_id, label in labels.items():
        g.add_node(node_id, label=label)
    for a, b in edges:
        g.add_edge(a, b)
    return g


class TestIsomorphic:
    def test_relabeled_graph_is_isomorphic(self):
        g = cycle_motif(5).to_graph()
        h = g.relabeled({f"v{i + 1}": f"x{i}" for i in range(5)})
        assert isomorphic(g, h, attrs=())
        mapping = isomorphism_mapping(g, h, attrs=())
        assert mapping is not None and len(mapping) == 5

    def test_path_vs_cycle(self):
        # same node count; different edge count
        assert not isomorphic(path_motif(4).to_graph(),
                              cycle_motif(5).to_graph(), attrs=())

    def test_same_counts_different_structure(self):
        # star vs path: 4 nodes, 3 edges, different degree sequences
        star = labeled([("c", "a"), ("c", "b"), ("c", "d")],
                       {n: "X" for n in "abcd"})
        path = labeled([("a", "b"), ("b", "c"), ("c", "d")],
                       {n: "X" for n in "abcd"})
        assert not isomorphic(star, path)

    def test_labels_matter(self):
        g = labeled([("a", "b")], {"a": "A", "b": "B"})
        h = labeled([("x", "y")], {"x": "A", "y": "A"})
        assert not isomorphic(g, h)
        assert isomorphic(g, h, attrs=())  # structure alone matches

    def test_directedness_matters(self):
        g = Graph(directed=True)
        g.add_node("a")
        g.add_node("b")
        g.add_edge("a", "b")
        h = Graph()
        h.add_node("a")
        h.add_node("b")
        h.add_edge("a", "b")
        assert not isomorphic(g, h, attrs=())

    def test_dedup(self):
        g = cycle_motif(4).to_graph()
        h = g.relabeled({"v1": "z1"})
        p = path_motif(3).to_graph()
        kept = deduplicate_isomorphic([g, h, p], attrs=())
        assert len(kept) == 2


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_agrees_with_networkx(seed):
    """Property: structural isomorphism agrees with networkx's VF2."""
    rng = random.Random(seed)
    a = nx.gnm_random_graph(rng.randint(2, 7), rng.randint(1, 10), seed=seed)
    if rng.random() < 0.5:
        # a relabeled copy of a (isomorphic by construction)
        relabel = {n: f"r{n}" for n in a.nodes}
        b = nx.relabel_nodes(a, relabel)
    else:
        b = nx.gnm_random_graph(rng.randint(2, 7), rng.randint(1, 10),
                                seed=seed + 1)
    ga, gb = from_networkx(a), from_networkx(b)
    ours = isomorphic(ga, gb, attrs=())
    theirs = nx.is_isomorphic(a, b)
    assert ours == theirs
