"""Integration tests reproducing the paper's worked examples end-to-end."""

from repro.core import DictSource, Graph
from repro.lang import compile_pattern_text
from repro.matching import (
    GraphMatcher,
    MatchOptions,
    optimized_options,
    refine_search_space,
    retrieve_feasible_mates,
)
from repro.matching.search_order import CostModel, greedy_order


class TestSection1Examples:
    def test_rdf_shipping_example(self):
        """Intro example: two departments of a company share a shipper."""
        g = Graph("rdf", directed=True)
        g.add_node("d1", tag="department", company="Acme")
        g.add_node("d2", tag="department", company="Acme")
        g.add_node("d3", tag="department", company="Other")
        g.add_node("s1", tag="shipper")
        g.add_node("s2", tag="shipper")
        g.add_edge("d1", "s1", kind="shipping")
        g.add_edge("d2", "s1", kind="shipping")
        g.add_edge("d3", "s2", kind="shipping")
        pattern = compile_pattern_text("""
            graph P {
                node u1 <department>;
                node u2 <department>;
                node s <shipper>;
                edge e1 (u1, s) where kind="shipping";
                edge e2 (u2, s) where kind="shipping";
            } where u1.company = u2.company
        """)
        matcher = GraphMatcher(g)
        report = matcher.match(pattern.single(), optimized_options())
        pairs = {
            frozenset((m.nodes["u1"], m.nodes["u2"])) for m in report.mappings
        }
        assert pairs == {frozenset(("d1", "d2"))}

    def test_heterocyclic_compound_example(self):
        """Intro example: an aromatic ring with a side chain."""
        from repro.core.motif import cycle_motif

        benzene = Graph("molecule")
        for i in range(6):
            benzene.add_node(f"c{i}", label="C")
        for i in range(6):
            benzene.add_edge(f"c{i}", f"c{(i + 1) % 6}")
        benzene.add_node("o1", label="O")  # the side chain
        benzene.add_edge("c0", "o1")
        ring = cycle_motif(6)
        from repro.core import GroundPattern

        pattern = GroundPattern(ring)
        matcher = GraphMatcher(benzene)
        report = matcher.match(pattern, MatchOptions(limit=1))
        assert report.mappings


class TestSection4Examples:
    def test_fig_4_17_search_spaces(self, paper_graph, triangle_pattern):
        """All three retrieval strategies give the exact Fig. 4.17 spaces."""
        by_nodes = retrieve_feasible_mates(triangle_pattern, paper_graph,
                                           local="none")
        by_profiles = retrieve_feasible_mates(triangle_pattern, paper_graph,
                                              local="profile")
        by_subgraphs = retrieve_feasible_mates(triangle_pattern, paper_graph,
                                               local="subgraph")
        assert by_nodes == {"u1": ["A1", "A2"], "u2": ["B1", "B2"],
                            "u3": ["C1", "C2"]}
        assert by_profiles == {"u1": ["A1"], "u2": ["B1", "B2"], "u3": ["C2"]}
        assert by_subgraphs == {"u1": ["A1"], "u2": ["B1"], "u3": ["C2"]}

    def test_fig_4_18_refinement(self, paper_graph, triangle_pattern):
        space = retrieve_feasible_mates(triangle_pattern, paper_graph,
                                        local="none")
        refined = refine_search_space(triangle_pattern.motif, paper_graph,
                                      space, level=2)
        assert refined == {"u1": ["A1"], "u2": ["B1"], "u3": ["C2"]}

    def test_section_4_4_order_choice(self, paper_graph, triangle_pattern):
        """On the {A1} x {B1,B2} x {C2} space, (A ⋈ C) ⋈ B wins, under
        the paper's constant gamma and the matcher's frequency gamma."""
        matcher = GraphMatcher(paper_graph)
        options = MatchOptions(local="profile", refine=False,
                               optimize_order=True)
        plan = matcher.plan(triangle_pattern, options)
        sizes = {name: len(mates) for name, mates in plan.space.items()}
        assert sizes == {"u1": 1, "u2": 2, "u3": 1}
        constant = CostModel(triangle_pattern.motif, stats=None)
        assert greedy_order(triangle_pattern.motif, sizes, constant) == [
            "u1", "u3", "u2"]
        report = matcher.match(triangle_pattern, options)
        assert report.order == ["u1", "u3", "u2"]


class TestFig413Trace:
    def test_intermediate_states(self):
        """Replay the four iterations of Fig. 4.13, checking each state."""
        from repro.core import GraphTemplate
        from repro.core.predicate import AttrRef, BinOp
        from repro.datasets import tiny_dblp

        def ref(path):
            return AttrRef(tuple(path.split(".")))

        # the four ordered author pairs the paper picks
        pairs = [("A", "B"), ("C", "D"), ("C", "A"), ("D", "A")]
        source = DictSource({"DBLP": tiny_dblp()})
        template = GraphTemplate(["C", "P"])
        template.include_graph("C")
        template.add_copied_node("P.v1")
        template.add_copied_node("P.v2")
        template.add_edge("P.v1", "P.v2")
        template.unify("P.v1", "C.v1",
                       where=BinOp("==", ref("P.v1.name"), ref("C.v1.name")))
        template.unify("P.v2", "C.v2",
                       where=BinOp("==", ref("P.v2.name"), ref("C.v2.name")))
        # drive the accumulation manually with the paper's binding order
        from repro.core import GroundPattern, Mapping, MatchedGraph
        from repro.core.motif import SimpleMotif

        motif = SimpleMotif()
        motif.add_node("v1", tag="author")
        motif.add_node("v2", tag="author")
        pattern = GroundPattern(motif, name="P")
        dblp = tiny_dblp()
        bindings = [
            MatchedGraph(Mapping({"v1": "v1", "v2": "v2"}), pattern, dblp[0]),
            MatchedGraph(Mapping({"v1": "v1", "v2": "v2"}), pattern, dblp[1]),
            MatchedGraph(Mapping({"v1": "v1", "v2": "v3"}), pattern, dblp[1]),
            MatchedGraph(Mapping({"v1": "v2", "v2": "v3"}), pattern, dblp[1]),
        ]
        expected_nodes = [2, 4, 4, 4]
        expected_edges = [1, 2, 3, 4]
        accumulator = Graph("C")
        for binding, n_nodes, n_edges in zip(bindings, expected_nodes,
                                             expected_edges):
            accumulator = template.instantiate({"C": accumulator, "P": binding})
            assert accumulator.num_nodes() == n_nodes
            assert accumulator.num_edges() == n_edges
        names = sorted(n["name"] for n in accumulator.nodes())
        assert names == ["A", "B", "C", "D"]


class TestProteinMotifExample:
    def test_functional_conservation_query(self):
        """Intro example: a GO-labeled complex queried in another species."""
        species_a = Graph("speciesA")
        for nid, term in [("p1", "GO:1"), ("p2", "GO:2"), ("p3", "GO:3")]:
            species_a.add_node(nid, label=term)
        species_a.add_edge("p1", "p2")
        species_a.add_edge("p2", "p3")
        species_a.add_edge("p3", "p1")
        # the same complex exists in species B with different protein names
        species_b = Graph("speciesB")
        for nid, term in [("q9", "GO:1"), ("q7", "GO:2"), ("q5", "GO:3"),
                          ("q1", "GO:9")]:
            species_b.add_node(nid, label=term)
        species_b.add_edge("q9", "q7")
        species_b.add_edge("q7", "q5")
        species_b.add_edge("q5", "q9")
        species_b.add_edge("q1", "q9")
        from repro.core import GroundPattern
        from repro.core.motif import SimpleMotif

        complex_query = SimpleMotif.from_graph(species_a)
        matcher = GraphMatcher(species_b)
        report = matcher.match(GroundPattern(complex_query),
                               optimized_options())
        assert len(report.mappings) == 1
        assert report.mappings[0].nodes["p1"] == "q9"
