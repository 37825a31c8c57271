"""Failure-injection tests: the system fails loudly and precisely.

A database layer must reject malformed inputs with actionable errors
rather than corrupting state or silently returning wrong answers.
"""

import pytest

from repro.core import Graph, GraphCollection, GraphTemplate, GroundPattern
from repro.core.motif import MotifBlock, MotifError, MotifRef, SimpleMotif
from repro.core.template import TemplateError
from repro.lang import (
    GraphQLCompileError,
    GraphQLSyntaxError,
    compile_graph_text,
    compile_pattern_text,
    compile_program,
)
from repro.matching import GraphMatcher, find_matches
from repro.storage import GraphDatabase


class TestLanguageErrors:
    def test_syntax_error_carries_position(self):
        with pytest.raises(GraphQLSyntaxError) as excinfo:
            compile_graph_text("graph G {\n  node v1\n  node v2;\n}")
        assert "line" in str(excinfo.value)

    def test_unknown_motif_reference(self):
        compiled = compile_program("graph G { graph NoSuchThing as X; };")
        with pytest.raises(MotifError):
            compiled.patterns["G"].ground(compiled.grammar)

    def test_pattern_attr_must_be_literal(self):
        with pytest.raises(GraphQLCompileError):
            compile_pattern_text("graph P { node v1 <label=v2.name>; }")

    def test_edge_endpoint_typo(self):
        text = "graph P { node v1, v2; edge e1 (v1, v3); }"
        with pytest.raises(GraphQLCompileError, match="GQL001"):
            compile_pattern_text(text)
        # unchecked, the motif refuses the end point when it is grounded
        pattern = compile_pattern_text(text, check=False)
        with pytest.raises(MotifError):
            pattern.ground()

    def test_flwr_unknown_doc(self):
        db = GraphDatabase()
        with pytest.raises(KeyError):
            db.query('for graph P { node v1; } in doc("missing") '
                     'return graph { node n; };')


class TestPatternEdgeCases:
    def test_empty_pattern_matches_once(self, paper_graph):
        pattern = GroundPattern(SimpleMotif())
        matches = find_matches(pattern, paper_graph)
        assert len(matches) == 1  # the empty mapping
        assert len(matches[0]) == 0

    def test_pattern_larger_than_graph(self):
        graph = Graph()
        graph.add_node("only")
        motif = SimpleMotif()
        for i in range(3):
            motif.add_node(f"u{i}")
        assert len(find_matches(GroundPattern(motif), graph)) == 0

    def test_empty_graph(self):
        graph = Graph()
        motif = SimpleMotif()
        motif.add_node("u")
        assert len(find_matches(GroundPattern(motif), graph)) == 0
        matcher = GraphMatcher(graph)
        assert len(matcher.match(GroundPattern(motif)).mappings) == 0

    def test_pattern_with_contradictory_predicate(self, paper_graph):
        from repro.core.predicate import AttrRef, BinOp, Literal

        motif = SimpleMotif()
        motif.add_node(
            "u",
            predicate=BinOp(
                "&",
                BinOp("==", AttrRef(("label",)), Literal("A")),
                BinOp("==", AttrRef(("label",)), Literal("B")),
            ),
        )
        assert len(find_matches(GroundPattern(motif), paper_graph)) == 0


class TestTemplateErrors:
    def test_instantiate_with_wrong_argument_type(self):
        template = GraphTemplate(["P"])
        template.add_copied_node("P.v1")
        graph = Graph()  # has no node v1
        with pytest.raises(TemplateError):
            template.instantiate({"P": graph})

    def test_self_unify_is_noop(self):
        template = GraphTemplate([])
        template.add_node("a")
        template.unify("a", "a")
        result = template.instantiate({})
        assert result.num_nodes() == 1


class TestRecursionSafety:
    def test_unbounded_recursion_is_cut_by_depth(self):
        """A motif with no base case derives nothing instead of hanging."""
        grammar_block = MotifBlock()
        grammar_block.add_member(MotifRef("Loop"), alias="Loop")
        grammar_block.add_node("v")
        from repro.core.motif import GraphGrammar

        grammar = GraphGrammar()
        grammar.define("Loop", grammar_block)
        assert grammar.derive("Loop", max_depth=6) == []

    def test_deep_recursion_bounded(self):
        from repro.core.motif import recursive_path_grammar

        grammar = recursive_path_grammar()
        grounds = grammar.derive("Path", max_depth=30)
        # base case has 2 nodes; each unrolling adds one node
        assert max(g.num_nodes() for g in grounds) <= 32


class TestCollectionRobustness:
    def test_select_on_empty_collection(self):
        from repro.core import select

        motif = SimpleMotif()
        motif.add_node("u")
        assert len(select(GraphCollection(), GroundPattern(motif))) == 0

    def test_matched_graphs_do_not_alias_state(self, paper_graph):
        from repro.core import select

        motif = SimpleMotif()
        motif.add_node("u", attrs={"label": "A"})
        result = select(GraphCollection([paper_graph]), GroundPattern(motif))
        matched = list(result)
        assert matched[0].mapping is not matched[1].mapping
        assert matched[0].mapping != matched[1].mapping
