"""Cross-validation against networkx's VF2 subgraph monomorphism.

Definition 4.2's matching (injective node mapping, every pattern edge
present) is exactly a label-preserving subgraph *monomorphism* — not the
induced isomorphism VF2 computes by default — so we compare against
``subgraph_monomorphisms_iter`` with a node-label semantic check.
An entirely independent implementation agreeing on random inputs is the
strongest correctness evidence we can get for Algorithm 4.1.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Graph, GroundPattern
from repro.core.motif import SimpleMotif
from repro.matching import GraphMatcher, find_matches, optimized_options

from tests.interop import to_networkx


def vf2_matches(pattern: GroundPattern, graph: Graph):
    """Label-constrained monomorphisms via networkx VF2."""
    from networkx.algorithms import isomorphism

    # build the pattern structure with the data graph's directedness so
    # VF2 compares like with like
    pattern_graph = Graph(directed=graph.directed)
    for node in pattern.motif.nodes():
        attrs = {"label": node.attrs["label"]} if "label" in node.attrs else {}
        pattern_graph.add_node(node.name, **attrs)
    for edge in pattern.motif.edges():
        pattern_graph.add_edge(edge.source, edge.target)
    nx_pattern = to_networkx(pattern_graph)
    nx_graph = to_networkx(graph)

    def node_match(data_attrs, pattern_attrs):
        label = pattern_attrs.get("label")
        return label is None or data_attrs.get("label") == label

    matcher_cls = (isomorphism.DiGraphMatcher if graph.directed
                   else isomorphism.GraphMatcher)
    vf2 = matcher_cls(nx_graph, nx_pattern, node_match=node_match)
    out = set()
    for mapping in vf2.subgraph_monomorphisms_iter():
        # VF2 maps data -> pattern; invert to pattern -> data
        out.add(frozenset((p, d) for d, p in mapping.items()))
    return out


def our_matches(pattern: GroundPattern, graph: Graph):
    return {frozenset(m.nodes.items())
            for m in find_matches(pattern, graph)}


def random_case(seed):
    rng = random.Random(seed)
    graph = Graph("G", directed=rng.random() < 0.3)
    for i in range(rng.randint(3, 8)):
        graph.add_node(f"n{i}", label=rng.choice("ABC"))
    ids = graph.node_ids()
    for _ in range(rng.randint(2, 14)):
        a, b = rng.choice(ids), rng.choice(ids)
        if a != b and not graph.has_edge(a, b):
            graph.add_edge(a, b)
    motif = SimpleMotif()
    for i in range(rng.randint(1, 4)):
        if rng.random() < 0.85:
            motif.add_node(f"u{i}", attrs={"label": rng.choice("ABC")})
        else:
            motif.add_node(f"u{i}")
    names = motif.node_names()
    for _ in range(rng.randint(0, 4)):
        a, b = rng.choice(names), rng.choice(names)
        if a != b and not motif.edges_between(a, b):
            motif.add_edge(a, b)
    return GroundPattern(motif), graph


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_matches_agree_with_vf2(seed):
    pattern, graph = random_case(seed)
    assert our_matches(pattern, graph) == vf2_matches(pattern, graph)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_optimized_pipeline_agrees_with_vf2(seed):
    pattern, graph = random_case(seed)
    matcher = GraphMatcher(graph)
    report = matcher.match(pattern, optimized_options())
    ours = {frozenset(m.nodes.items()) for m in report.mappings}
    assert ours == vf2_matches(pattern, graph)


def test_paper_example_agrees_with_vf2(paper_graph, triangle_pattern):
    assert our_matches(triangle_pattern, paper_graph) == vf2_matches(
        triangle_pattern, paper_graph
    )
