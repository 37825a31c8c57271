"""Golden corpus: plan lints (GQL009 connectivity)."""

from repro.analysis import Severity, analyze_pattern_text


def only(diags, code):
    hits = [d for d in diags if d.code == code]
    assert hits, f"expected {code}, got {[d.code for d in diags]}"
    return hits


def codes(diags):
    return {d.code for d in diags}


class TestConnectivity:
    def test_two_isolated_nodes_are_gql009(self):
        diags = analyze_pattern_text("graph P { node v1; node v2; }")
        (d,) = only(diags, "GQL009")
        assert d.severity is Severity.WARNING
        assert "cartesian" in d.message

    def test_edge_connects_the_components(self):
        diags = analyze_pattern_text(
            "graph P { node v1; node v2; edge e1 (v1, v2); }")
        assert "GQL009" not in codes(diags)

    def test_cross_predicate_connects_the_components(self):
        diags = analyze_pattern_text(
            "graph P { node v1; node v2; } where v1.x = v2.x")
        assert "GQL009" not in codes(diags)

    def test_unify_connects_the_components(self):
        diags = analyze_pattern_text(
            "graph P { node v1; node v2; unify v1, v2; }")
        assert "GQL009" not in codes(diags)

    def test_single_node_pattern_is_clean(self):
        diags = analyze_pattern_text("graph P { node v1; }")
        assert "GQL009" not in codes(diags)
