"""Unit tests for neighborhood subgraphs and profiles (Section 4.2)."""

from collections import Counter

from repro.core import GroundPattern
from repro.matching import (
    motif_profile,
    neighborhood_subgraph,
    neighborhood_subisomorphic,
    profile,
    profile_contained,
)
from repro.matching.neighborhood import (
    motif_neighborhood,
    motif_nodes_within_radius,
    nodes_within_radius,
)


class TestNeighborhoods:
    def test_radius_zero_is_node_itself(self, paper_graph):
        assert nodes_within_radius(paper_graph, "A1", 0) == ["A1"]
        sub = neighborhood_subgraph(paper_graph, "A1", 0)
        assert sub.node_ids() == ["A1"]
        assert sub.num_edges() == 0

    def test_radius_one(self, paper_graph):
        nodes = set(nodes_within_radius(paper_graph, "B1", 1))
        assert nodes == {"B1", "A1", "C1", "C2"}

    def test_radius_one_subgraph_keeps_internal_edges(self, paper_graph):
        sub = neighborhood_subgraph(paper_graph, "A1", 1)
        assert set(sub.node_ids()) == {"A1", "B1", "C2"}
        # includes the B1-C2 edge (both end points inside)
        assert sub.has_edge("B1", "C2")
        assert sub.num_edges() == 3

    def test_radius_two_reaches_everything_close(self, paper_graph):
        nodes = set(nodes_within_radius(paper_graph, "A2", 2))
        assert nodes == {"A2", "B2", "C2"}


class TestProfiles:
    def test_fig_4_17_profiles(self, paper_graph):
        """The exact profiles shown in Fig. 4.17."""
        expected = {
            "A1": "ABC",
            "B1": "ABCC",
            "B2": "ABC",
            "C1": "BC",
            "C2": "ABBC",
            "A2": "AB",
        }
        for node_id, profile_string in expected.items():
            assert "".join(profile(paper_graph, node_id, 1)) == profile_string

    def test_profile_contains_self_label(self, paper_graph):
        assert "A" in profile(paper_graph, "A1", 1)

    def test_containment(self):
        def contained(need, have):
            return profile_contained(Counter(need).items(), Counter(have))

        assert contained(("A", "B"), ("A", "B", "C"))
        assert contained((), ("A",))
        assert not contained(("A", "A"), ("A", "B"))
        assert not contained(("D",), ("A", "B", "C"))

    def test_motif_profile_ignores_unconstrained_nodes(self):
        from repro.core.motif import SimpleMotif

        motif = SimpleMotif()
        motif.add_node("u", attrs={"label": "A"})
        motif.add_node("w")  # no label constraint
        motif.add_edge("u", "w")
        assert motif_profile(motif, "u", 1) == ("A",)


class TestMotifNeighborhood:
    def test_pattern_neighborhood_structure(self, triangle_pattern):
        sub = motif_neighborhood(triangle_pattern, "u1", 1)
        assert sub.num_nodes() == 3
        assert sub.num_edges() == 3  # the whole clique is within radius 1

    def test_radius_limits_pattern_nodes(self):
        from repro.core.motif import path_motif

        pattern = GroundPattern(path_motif(4))
        names = motif_nodes_within_radius(pattern.motif, "v1", 1)
        assert set(names) == {"v1", "v2"}


class TestSubisomorphismPruning:
    def test_fig_4_17_subgraph_retrieval(self, paper_graph, triangle_pattern):
        """Retrieval by neighborhood subgraphs keeps exactly A1, B1, C2."""
        keeps = {}
        for pattern_node, candidates in {
            "u1": ["A1", "A2"], "u2": ["B1", "B2"], "u3": ["C1", "C2"],
        }.items():
            keeps[pattern_node] = [
                c for c in candidates
                if neighborhood_subisomorphic(
                    triangle_pattern, pattern_node, paper_graph, c, 1
                )
            ]
        assert keeps == {"u1": ["A1"], "u2": ["B1"], "u3": ["C2"]}

    def test_prune_is_sound(self, paper_graph, triangle_pattern):
        """A node in a real match always survives the neighborhood test."""
        from repro.matching import find_matches

        for mapping in find_matches(triangle_pattern, paper_graph):
            for pattern_node, data_node in mapping.nodes.items():
                assert neighborhood_subisomorphic(
                    triangle_pattern, pattern_node, paper_graph, data_node, 1
                )
