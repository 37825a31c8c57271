"""Unit and property tests for the label-path filter (filter+verify):
the features, and the containment test ``match_members`` runs on each
small member."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Graph, GraphCollection, GroundPattern, select
from repro.core.motif import SimpleMotif, clique_motif
from repro.datasets import (benzene_ring_pattern, erdos_renyi_graph,
                            molecule_collection)
from repro.index import enumerate_label_paths, pattern_features
from repro.index.path_index import MAX_PATH_WALKS, path_walk_bound
from repro.matching import brute_force_matches, find_matches
from repro.matching import planner
from repro.matching.planner import match_members
from repro.storage import GraphDatabase


def filtered_out(collection, pattern, exhaustive=True):
    """(positions the filter rejected, positions that ran) of one
    ``match_members`` pass with a matcher cache, so label paths are read."""
    filtered = []
    runs = list(match_members(collection, [pattern],
                              planner.MatchOptions(exhaustive=exhaustive),
                              matchers={}, filtered=filtered))
    return filtered, sorted({run.position for run in runs})


def scanned(collection, pattern):
    """Positions of the members a filter-less search matches."""
    return [position for position, graph in enumerate(collection)
            if find_matches(pattern, graph, exhaustive=False)]


def labeled_path(labels) -> Graph:
    g = Graph()
    previous = None
    for i, label in enumerate(labels):
        node = g.add_node(f"n{i}", label=label)
        if previous is not None:
            g.add_edge(previous, node.id)
        previous = node.id
    return g


class TestFeatureEnumeration:
    def test_single_node(self):
        g = labeled_path("A")
        features = enumerate_label_paths(g, 2)
        assert features == {("A",): 1}

    def test_path_counts(self):
        g = labeled_path("ABC")
        features = enumerate_label_paths(g, 2)
        assert features[("A",)] == 1
        assert features[("A", "B")] == 1  # counted once, not per direction
        assert features[("B", "C")] == 1
        assert features[("A", "B", "C")] == 1
        assert ("C", "B", "A") not in features  # canonicalized

    def test_palindrome_paths_counted_once(self):
        g = labeled_path("ABA")
        features = enumerate_label_paths(g, 2)
        assert features[("A", "B", "A")] == 1
        assert features[("A", "B")] == 2  # two distinct A-B edges

    def test_triangle(self):
        g = Graph()
        for i, label in enumerate("ABC"):
            g.add_node(f"n{i}", label=label)
        g.add_edge("n0", "n1")
        g.add_edge("n1", "n2")
        g.add_edge("n0", "n2")
        features = enumerate_label_paths(g, 1)
        assert features[("A", "B")] == 1
        assert features[("A", "C")] == 1
        assert features[("B", "C")] == 1

    def test_length_bound(self):
        g = labeled_path("ABCD")
        features = enumerate_label_paths(g, 1)
        assert all(len(f) <= 2 for f in features)

    def test_directed_paths_keep_direction(self):
        g = Graph(directed=True)
        g.add_node("a", label="A")
        g.add_node("b", label="B")
        g.add_edge("a", "b")
        features = enumerate_label_paths(g, 2)
        assert features[("A", "B")] == 1
        assert ("B", "A") not in features


class TestPatternFeatures:
    def test_unconstrained_nodes_excluded(self):
        motif = SimpleMotif()
        motif.add_node("u", attrs={"label": "A"})
        motif.add_node("w")  # no constraint
        motif.add_edge("u", "w")
        features = pattern_features(GroundPattern(motif), 2)
        assert features == {("A",): 1}

    def test_pattern_and_data_features_align(self):
        pattern = GroundPattern(clique_motif(["A", "B", "C"]))
        required = pattern_features(pattern, 2)
        data = enumerate_label_paths(clique_motif(["A", "B", "C"]).to_graph(), 2)
        # the pattern's own structure trivially satisfies its requirements
        for feature, count in required.items():
            assert data[feature] >= count


class TestFilterVerify:
    def make_collection(self):
        return GraphCollection([
            labeled_path("AB"),     # 0
            labeled_path("ABC"),    # 1
            labeled_path("AC"),     # 2
            labeled_path("BCB"),    # 3
        ])

    def test_filter_prunes(self):
        collection = self.make_collection()
        filtered, ran = filtered_out(collection, _ab_pattern())
        assert ran == [0, 1] and filtered == [2, 3]
        assert len(filtered) / len(collection) == 0.5

    def test_select_equals_full_scan(self):
        collection = self.make_collection()
        pattern = _ab_pattern()
        assert sorted(collection.graphs().index(m.graph)
                      for m in select(collection, pattern)) == scanned(
                          collection, pattern)

    def test_unconstrained_pattern_scans_everything(self):
        motif = SimpleMotif()
        motif.add_node("u")
        pattern = GroundPattern(motif)
        assert pattern.feature_needs(False) is None
        filtered, ran = filtered_out(self.make_collection(), pattern)
        assert filtered == [] and ran == [0, 1, 2, 3]


class TestMolecules:
    def test_benzene_search(self):
        collection = molecule_collection(num_molecules=120, seed=3)
        pattern = benzene_ring_pattern()
        filtered = []
        result = list(match_members(collection, pattern.ground(),
                                    planner.MatchOptions(exhaustive=False),
                                    matchers={}, filtered=filtered))
        # the filter must not lose any compound a full scan finds
        answering = scanned(collection, pattern.ground()[0])
        assert [run.position for run in result
                if run.report.mappings] == answering
        assert not set(filtered) & set(answering)
        assert 0 < len(filtered) < len(collection)


class TestOddGraphs:
    def test_mixed_type_node_ids(self):
        """Undirected paths are ordered by node position, not by id: ids
        of different types do not compare."""
        g = Graph()
        g.add_node(1, label="A")
        g.add_node("x", label="B")
        g.add_node(2.5, label="C")
        g.add_edge(1, "x")
        g.add_edge("x", 2.5)
        features = enumerate_label_paths(g, 2)
        assert features[("A", "B")] == features[("B", "C")] == 1
        assert features[("A", "B", "C")] == 1
        filtered, ran = filtered_out(GraphCollection([g]), _ab_pattern())
        assert filtered == [] and ran == [0]

    def test_directed_pattern_paths_follow_edge_direction(self):
        """A directed pattern edge u -> v needs the path (u, v) only; the
        reverse read would reject the graph that contains it."""
        forward = Graph("forward", directed=True)
        backward = Graph("backward", directed=True)
        for graph in (forward, backward):
            graph.add_node("a", label="A")
            graph.add_node("b", label="B")
        forward.add_edge("a", "b")
        backward.add_edge("b", "a")
        pattern = _ab_pattern()
        assert pattern_features(pattern, 2, directed=True) == {
            ("A",): 1, ("B",): 1, ("A", "B"): 1}
        collection = GraphCollection([forward, backward])
        filtered, ran = filtered_out(collection, pattern)
        assert ran == scanned(collection, pattern) == [0]
        assert filtered == [1]

    def test_parallel_directed_pattern_edges_need_one_path(self):
        """Two pattern edges u -> v map to the one data edge a -> b, so
        they require the path (A, B) once, as the data counts it."""
        data = Graph("one-edge", directed=True)
        data.add_node("a", label="A")
        data.add_node("b", label="B")
        data.add_edge("a", "b")
        motif = SimpleMotif()
        motif.add_node("u", attrs={"label": "A"})
        motif.add_node("v", attrs={"label": "B"})
        motif.add_edge("u", "v")
        motif.add_edge("u", "v")
        pattern = GroundPattern(motif)
        assert pattern_features(pattern, 2, directed=True) == {
            ("A",): 1, ("B",): 1, ("A", "B"): 1}
        filtered, ran = filtered_out(GraphCollection([data]), pattern)
        assert filtered == [] and ran == [0]
        (run,) = match_members([data], [pattern], matchers={})
        assert ([dict(m.nodes) for m in run.report.mappings]
                == [dict(m.nodes) for m in brute_force_matches(pattern, data)]
                == [{"u": "a", "v": "b"}])

    def test_a_member_whose_features_cannot_be_counted_passes(
            self, monkeypatch):
        def broken(graph, max_length=3):
            raise RuntimeError("no paths today")

        monkeypatch.setattr(planner, "enumerate_label_paths", broken)
        collection = GraphCollection([labeled_path("AB"), labeled_path("AC")])
        filtered = []
        (run,) = match_members(collection, [_ab_pattern()], matchers={},
                               filtered=filtered)
        # the label tier still rejects the member without a B
        assert run.position == 0 and filtered == [1]
        assert len(run.report.mappings) == 1
        assert any(note.startswith("label-path features build failed "
                                   "(no paths today)")
                   for note in run.report.degradation)


class TestWhereLabelPathsAreRead:
    """Label paths cost a traversal per path: the filter reads them only
    where they pay off, and label counts everywhere."""

    def count_calls(self, monkeypatch):
        counted = []
        count = planner.enumerate_label_paths
        monkeypatch.setattr(planner, "enumerate_label_paths",
                            lambda graph: counted.append(graph) or count(graph))
        return counted

    def test_a_call_without_a_matcher_cache_reads_label_counts_only(
            self, monkeypatch):
        counted = self.count_calls(monkeypatch)
        collection = GraphCollection([labeled_path("ACB"), labeled_path("AC")])
        filtered = []
        runs = list(match_members(collection, [_ab_pattern()],
                                  filtered=filtered))
        # the labels of member 0 pass, and its missing A-B path is found
        # by the search; member 1 lacks a B
        assert [run.position for run in runs] == [0] and filtered == [1]
        assert not runs[0].report.mappings and counted == []
        assert filtered_out(collection, _ab_pattern()) == ([0, 1], [])
        assert len(counted) == 1

    def test_molecules_are_counted_and_a_dense_member_is_not(
            self, monkeypatch):
        assert max(map(path_walk_bound, molecule_collection(60))) * 3 \
            < MAX_PATH_WALKS
        dense = erdos_renyi_graph(20, 100, num_labels=2, seed=1, name="dense")
        assert path_walk_bound(dense) > MAX_PATH_WALKS
        counted = self.count_calls(monkeypatch)
        db = GraphDatabase()
        db.register("d", GraphCollection([dense]))
        assert db.collection_index_for("d") == [None] and counted == []
        pattern = GroundPattern(clique_motif(["L000", "L001"]))
        (report,) = db.match("d", pattern).values()
        assert len(report.mappings) == len(brute_force_matches(pattern, dense))
        assert counted == [] and not report.degradation


def _ab_pattern() -> GroundPattern:
    motif = SimpleMotif()
    motif.add_node("u", attrs={"label": "A"})
    motif.add_node("w", attrs={"label": "B"})
    motif.add_edge("u", "w")
    return GroundPattern(motif)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_filter_soundness(seed):
    """Property: the path filter never drops a graph that matches."""
    rng = random.Random(seed)
    labels = "AB"
    directed = rng.random() < 0.5
    collection = GraphCollection()
    for g_index in range(6):
        g = Graph(f"g{g_index}", directed=directed)
        n = rng.randint(2, 6)
        for i in range(n):
            g.add_node(f"n{i}", label=rng.choice(labels))
        ids = g.node_ids()
        for _ in range(rng.randint(1, 8)):
            a, b = rng.choice(ids), rng.choice(ids)
            if a != b and not g.has_edge(a, b):
                g.add_edge(a, b)
        collection.add(g)
    # pattern extracted from a random member => at least one true answer
    source = collection[rng.randrange(len(collection))]
    size = rng.randint(1, min(3, source.num_nodes()))
    chosen = rng.sample(source.node_ids(), size)
    motif = SimpleMotif.from_graph(source.induced_subgraph(chosen))
    for edge in list(motif.edges())[:rng.randint(0, 1)]:
        motif.add_edge(edge.source, edge.target)  # a parallel edge
    pattern = GroundPattern(motif)

    filtered, _ = filtered_out(collection, pattern)
    for position in scanned(collection, pattern):
        assert position not in filtered, (
            f"filter dropped matching graph {collection[position].name}"
        )
