"""Unit tests for the cost model and search-order optimization (4.4)."""

import pytest

from repro.core import Graph
from repro.core.motif import SimpleMotif, clique_motif, path_motif
from repro.matching import (
    CostModel,
    GraphStatistics,
    connected_order,
    greedy_order,
    order_cost,
)
from tests.matching.reference import exhaustive_order


def triangle_sizes():
    """The paper's running example: {A1} x {B1, B2} x {C2}."""
    return {"u1": 1, "u2": 2, "u3": 1}


class TestCostModel:
    def test_constant_gamma(self):
        motif = clique_motif(["A", "B", "C"])
        model = CostModel(motif, stats=None, gamma_const=0.1)
        assert model.gamma(["u1"], "u2") == pytest.approx(0.1)
        # joining u3 onto {u1, u2} closes two edges
        assert model.gamma(["u1", "u2"], "u3") == pytest.approx(0.01)

    def test_gamma_is_one_for_cartesian_step(self):
        motif = SimpleMotif()
        motif.add_node("a")
        motif.add_node("b")  # no edges
        model = CostModel(motif, gamma_const=0.1)
        assert model.gamma(["a"], "b") == 1.0

    def test_frequency_gamma(self, paper_graph):
        motif = clique_motif(["A", "B", "C"])
        stats = GraphStatistics(paper_graph)
        model = CostModel(motif, stats=stats)
        # freq(A-B edges)=2, freq(A)=2, freq(B)=2 -> P = 2/4
        assert model.edge_probability("u1", "u2") == pytest.approx(0.5)

    def test_unlabeled_density_counts_ordered_pairs_when_directed(self):
        """The unlabeled fallback is edges over the possible edges: the
        n(n-1) ordered pairs of a directed graph, n(n-1)/2 otherwise."""
        for directed, density in ((True, 3 / 12), (False, 3 / 6)):
            graph = Graph(directed=directed)
            for node_id in ("a", "b", "c", "d"):
                graph.add_node(node_id)
            for source, target in (("a", "b"), ("b", "c"), ("c", "d")):
                graph.add_edge(source, target)
            stats = GraphStatistics(graph)
            assert stats.edge_probability(None, None, directed) == density
            motif = path_motif(1)  # one edge, unlabeled ends
            model = CostModel(motif, stats=stats, directed=directed)
            first, second = motif.node_names()
            assert model.gamma({first}, second) == density

    def test_paper_cost_example(self):
        """Section 4.4: cost((A⋈B)⋈C) = 2 + 2γ; cost((A⋈C)⋈B) = 1 + 2γ."""
        motif = clique_motif(["A", "B", "C"])
        model = CostModel(motif, gamma_const=0.1)
        sizes = triangle_sizes()
        cost_ab_c, _ = order_cost(["u1", "u2", "u3"], sizes, model)
        cost_ac_b, _ = order_cost(["u1", "u3", "u2"], sizes, model)
        gamma = 0.1
        assert cost_ab_c == pytest.approx(2 + 2 * gamma)
        assert cost_ac_b == pytest.approx(1 + 2 * gamma)
        assert cost_ac_b < cost_ab_c


class TestGreedyOrder:
    def test_picks_paper_order(self):
        """Greedy should choose (A ⋈ C) ⋈ B on the running example."""
        motif = clique_motif(["A", "B", "C"])
        model = CostModel(motif, gamma_const=0.1)
        order = greedy_order(motif, triangle_sizes(), model)
        assert order == ["u1", "u3", "u2"]

    def test_greedy_matches_exhaustive_on_small_patterns(self, paper_graph):
        stats = GraphStatistics(paper_graph)
        motif = clique_motif(["A", "B", "C"])
        model = CostModel(motif, stats=stats)
        sizes = {"u1": 2, "u2": 2, "u3": 2}
        greedy = greedy_order(motif, sizes, model)
        best = exhaustive_order(motif, sizes, model)
        greedy_cost, _ = order_cost(greedy, sizes, model)
        best_cost, _ = order_cost(best, sizes, model)
        assert greedy_cost <= best_cost * 1.5  # greedy is near-optimal here

    def test_single_node(self):
        motif = SimpleMotif()
        motif.add_node("only")
        model = CostModel(motif)
        assert greedy_order(motif, {"only": 5}, model) == ["only"]

    def test_order_covers_all_nodes(self):
        motif = path_motif(5)
        model = CostModel(motif, gamma_const=0.2)
        sizes = {name: i + 1 for i, name in enumerate(motif.node_names())}
        order = greedy_order(motif, sizes, model)
        assert sorted(order) == sorted(motif.node_names())


class TestExhaustiveOrder:
    def test_size_cap(self):
        motif = path_motif(10)
        model = CostModel(motif)
        with pytest.raises(ValueError):
            exhaustive_order(motif, {n: 1 for n in motif.node_names()}, model)

    def test_exhaustive_is_optimal(self):
        motif = clique_motif(["A", "B", "C"])
        model = CostModel(motif, gamma_const=0.1)
        sizes = triangle_sizes()
        best = exhaustive_order(motif, sizes, model)
        best_cost, _ = order_cost(best, sizes, model)
        import itertools

        for perm in itertools.permutations(motif.node_names()):
            cost, _ = order_cost(list(perm), sizes, model)
            assert best_cost <= cost + 1e-12


class TestConnectedOrder:
    def test_connected_when_possible(self):
        motif = path_motif(3)
        order = connected_order(motif)
        placed = {order[0]}
        for name in order[1:]:
            assert any(n in placed for n in motif.neighbors(name))
            placed.add(name)

    def test_handles_disconnected_patterns(self):
        motif = SimpleMotif()
        motif.add_node("a")
        motif.add_node("b")
        order = connected_order(motif)
        assert sorted(order) == ["a", "b"]
