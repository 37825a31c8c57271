"""Property-based tests: all matching strategies agree with brute force.

These are the core soundness/completeness guarantees of the access
methods: local pruning (profiles, neighborhood subgraphs), global
refinement, search ordering, SQL translation and Datalog translation must
never change the set of reported mappings.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Graph, GroundPattern
from repro.core.motif import SimpleMotif
from repro.datalog import match_with_datalog
from repro.matching import (
    GraphMatcher,
    MatchOptions,
    baseline_options,
    brute_force_matches,
    find_matches,
    optimized_options,
)
from repro.obs.explain import explain_ground
from repro.sqlbaseline import SQLGraphMatcher

LABELS = "ABC"


def random_graph(rng: random.Random, n_nodes: int, n_edges: int) -> Graph:
    graph = Graph("G")
    for i in range(n_nodes):
        graph.add_node(f"n{i}", label=rng.choice(LABELS))
    ids = graph.node_ids()
    for _ in range(n_edges):
        u, v = rng.choice(ids), rng.choice(ids)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


def random_pattern(rng: random.Random, n_nodes: int, n_edges: int) -> GroundPattern:
    motif = SimpleMotif()
    for i in range(n_nodes):
        if rng.random() < 0.8:
            motif.add_node(f"u{i}", attrs={"label": rng.choice(LABELS)})
        else:
            motif.add_node(f"u{i}")  # unconstrained node
    names = motif.node_names()
    for _ in range(n_edges):
        a, b = rng.choice(names), rng.choice(names)
        if a != b and not motif.edges_between(a, b):
            motif.add_edge(a, b)
    return GroundPattern(motif)


def mapping_set(mappings):
    return {frozenset(m.nodes.items()) for m in mappings}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_pipeline_matches_brute_force(seed):
    rng = random.Random(seed)
    graph = random_graph(rng, rng.randint(3, 8), rng.randint(2, 12))
    pattern = random_pattern(rng, rng.randint(1, 3), rng.randint(0, 3))
    expected = mapping_set(brute_force_matches(pattern, graph))
    matcher = GraphMatcher(graph)
    for local in ("none", "profile", "subgraph"):
        for refine in (False, True):
            report = matcher.match(
                pattern, MatchOptions(local=local, refine=refine)
            )
            assert mapping_set(report.mappings) == expected, (local, refine)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_sql_baseline_matches_graph_matcher(seed):
    rng = random.Random(seed)
    graph = random_graph(rng, rng.randint(3, 8), rng.randint(2, 12))
    pattern = random_pattern(rng, rng.randint(1, 3), rng.randint(0, 3))
    native = mapping_set(find_matches(pattern, graph))
    sql = mapping_set(SQLGraphMatcher(graph).match(pattern))
    assert native == sql


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_datalog_translation_matches_graph_matcher(seed):
    rng = random.Random(seed)
    graph = random_graph(rng, rng.randint(3, 6), rng.randint(2, 8))
    pattern = random_pattern(rng, rng.randint(1, 3), rng.randint(0, 2))
    native = mapping_set(find_matches(pattern, graph))
    datalog = mapping_set(match_with_datalog(pattern, graph))
    assert native == datalog


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_search_order_never_changes_results(seed):
    rng = random.Random(seed)
    graph = random_graph(rng, rng.randint(4, 9), rng.randint(3, 14))
    pattern = random_pattern(rng, rng.randint(2, 4), rng.randint(1, 4))
    names = pattern.motif.node_names()
    baseline = mapping_set(find_matches(pattern, graph))
    for _ in range(3):
        order = names[:]
        rng.shuffle(order)
        assert mapping_set(find_matches(pattern, graph, order=order)) == baseline


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_extracted_query_always_has_a_match(seed):
    """An extracted connected subgraph query matches at its own site."""
    from repro.datasets.queries import extract_connected_query

    rng = random.Random(seed)
    graph = random_graph(rng, 10, 18)
    try:
        pattern = extract_connected_query(graph, rng.randint(2, 4), rng)
    except ValueError:
        return  # graph too sparse for the requested size; nothing to assert
    assert find_matches(pattern, graph, exhaustive=False)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_directed_pipeline_matches_brute_force(seed):
    rng = random.Random(seed)
    graph = Graph("G", directed=True)
    for i in range(rng.randint(3, 7)):
        graph.add_node(f"n{i}", label=rng.choice(LABELS))
    ids = graph.node_ids()
    for _ in range(rng.randint(2, 10)):
        u, v = rng.choice(ids), rng.choice(ids)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    pattern = random_pattern(rng, rng.randint(1, 3), rng.randint(0, 2))
    expected = mapping_set(brute_force_matches(pattern, graph))
    matcher = GraphMatcher(graph)
    report = matcher.match(pattern, MatchOptions(local="profile", refine=True))
    assert mapping_set(report.mappings) == expected


def assert_explain_is_the_plan_match_runs(matcher, pattern):
    """EXPLAIN and match() read one plan: same order, policy and spaces
    under both presets."""
    for options in (optimized_options(), baseline_options()):
        report = matcher.match(pattern, options)
        entry = explain_ground(matcher, pattern, options)
        assert entry["order"] == report.order
        assert entry["order_policy"] == report.policy
        assert entry["spaces"] == {
            "baseline": report.baseline_space,
            "retrieved": report.retrieved_space,
            "refined": report.refined_space,
        }


def test_explain_equals_match_plan_on_the_paper_example(paper_graph,
                                                        triangle_pattern):
    assert_explain_is_the_plan_match_runs(GraphMatcher(paper_graph),
                                          triangle_pattern)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_explain_equals_match_plan(seed):
    rng = random.Random(seed)
    graph = random_graph(rng, rng.randint(3, 8), rng.randint(2, 12))
    pattern = random_pattern(rng, rng.randint(1, 4), rng.randint(0, 4))
    assert_explain_is_the_plan_match_runs(GraphMatcher(graph), pattern)
