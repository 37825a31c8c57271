"""Answers as a binding table, against the dict-emitting search.

``find_matches`` emits each answer as one row of value tuples under a
schema fixed once per search; ``tests/matching/reference.py`` keeps the
search that copies out one :class:`~repro.core.bindings.Mapping` per
answer.  Wherever the two run the same search (pins, an asymmetric
pattern, or candidates that differ inside an orbit) the table's mappings
must be the reference's list: same order, same node and edge key order,
equal :class:`SearchCounters`, and under a memory cap the same
truncation point, ``memory_used`` and outcome.  A symmetry-aware search
must emit, in order, ψ∘g for every canonical ψ of the reference's list
and every g of the stabiliser chain, walked level by level.  Merged
derivations with different schemas and memoised replays keep the same
answers too.
"""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GraphCollection
from repro.core.bindings import EMPTY_ANSWERS, AnswerTable, Block, Mapping
from repro.core.motif import Disjunction, MotifBlock
from repro.core.pattern import GraphPattern
from repro.matching import SearchCounters, brute_force_matches, find_matches
from repro.matching.basic import scan_feasible_mates
from repro.matching.planner import SMALL_MEMBER_NODES, match_members
from repro.runtime import ExecutionContext, mapping_cost
from repro.storage import GraphDatabase
from tests.matching import reference
from tests.matching.test_symmetry import _graph, _symmetric_pattern


def _listed(mappings):
    """Mappings as a list of (node items, edge items): order and key
    order included."""
    return [(tuple(m.nodes.items()), tuple(m.edges.items())) for m in mappings]


def _counts(counters: SearchCounters):
    return tuple(getattr(counters, slot) for slot in SearchCounters.__slots__)


def _run(search, pattern, graph, **kwargs):
    """One search with fresh counters (and a context under a memory
    cap): its answers, counters and context."""
    counters = SearchCounters()
    context = None
    if "max_memory" in kwargs:
        context = ExecutionContext(max_memory=kwargs.pop("max_memory"))
    found = search(pattern, graph, counters=counters, context=context,
                   **kwargs)
    return _listed(found), _counts(counters), context


def _orbit_expansion(pattern, graph, found):
    """What the symmetry-aware search emits, from the reference's answers
    *found*: each canonical ψ (φ(b) < φ(x) for every constraint), then
    ψ∘g for the chain's representatives, level 0 outermost, identity
    first at every level — composed as dicts over declaration indices."""
    symmetry = pattern.symmetry(graph.directed)
    node_names, edge_names = symmetry.node_names, symmetry.edge_names
    choices = [list(zip(level.nodes, level.edges)) for level in symmetry.levels]
    emitted = []
    for nodes, edges in found:
        psi_nodes, psi_edges = dict(nodes), dict(edges)
        if any(psi_nodes[b] >= psi_nodes[x] for b, x in symmetry.constraints):
            continue
        for picks in product(*choices):
            now_nodes, now_edges = psi_nodes, psi_edges
            for node_perm, edge_perm in picks:
                now_nodes = {name: now_nodes[node_names[node_perm[
                    node_names.index(name)]]] for name in now_nodes}
                now_edges = {name: now_edges[edge_names[edge_perm[
                    edge_names.index(name)]]] for name in now_edges}
            emitted.append((tuple(now_nodes.items()), tuple(now_edges.items())))
    return emitted


def _symmetric(pattern, graph, candidates=None, initial=None) -> bool:
    """Whether ``find_matches`` searches one mapping per automorphism
    class: no pins, a nontrivial group, orbit-uniform candidates."""
    symmetry = pattern.symmetry(graph.directed)
    if initial or symmetry.trivial:
        return False
    if candidates is None:
        candidates = scan_feasible_mates(pattern, graph)
    return symmetry.uniform(candidates)


def _expected(pattern, graph, **kwargs):
    """The answers ``find_matches`` must list, from the reference."""
    found = _listed(reference.find_matches(pattern, graph, **kwargs))
    if not _symmetric(pattern, graph, kwargs.get("candidates"),
                      kwargs.get("initial")):
        return found
    return _orbit_expansion(pattern, graph, found)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 10 ** 9), st.booleans())
def test_the_table_is_the_dict_emitting_search(seed, directed):
    rng = random.Random(seed)
    graph = _graph(rng, directed)
    pattern = _symmetric_pattern(rng)
    names = pattern.node_names()
    order = list(names)
    rng.shuffle(order)
    cost = mapping_cost(len(names) + pattern.num_edges())

    # the plain search: pinned, or candidates that differ inside an orbit
    pinned = rng.sample(names, rng.randint(1, min(2, len(names))))
    initial = {name: rng.choice(graph.node_ids()) for name in pinned}
    candidates = {name: graph.node_ids() for name in names}
    candidates[rng.choice(names)] = rng.sample(graph.node_ids(),
                                               rng.randint(0, 3))
    for kwargs in (dict(initial=initial, order=order),
                   dict(candidates=candidates, order=order),
                   dict(order=order)):
        if _symmetric(pattern, graph, kwargs.get("candidates"),
                      kwargs.get("initial")):
            continue
        expected, counts, _ = _run(reference.find_matches, pattern, graph,
                                   **kwargs)
        assert _run(find_matches, pattern, graph, **kwargs)[:2] == (
            expected, counts)
        for extra in (dict(limit=rng.randint(1, 4)), dict(exhaustive=False)):
            assert _run(find_matches, pattern, graph, **kwargs, **extra)[:2] \
                == _run(reference.find_matches, pattern, graph, **kwargs,
                        **extra)[:2]
        budget = cost * rng.randint(1, 4) - rng.randint(0, 1)
        want = _run(reference.find_matches, pattern, graph, **kwargs,
                    max_memory=budget)
        got = _run(find_matches, pattern, graph, **kwargs, max_memory=budget)
        assert got[:2] == want[:2]
        _same_accounting(got[2], want[2])

    # the symmetry-aware search: the reference's canonical answers,
    # expanded over the group in the chain's order
    if not _symmetric(pattern, graph):
        return
    found, counts, _ = _run(find_matches, pattern, graph, order=order)
    assert counts[SearchCounters.__slots__.index("results")] == len(found)
    if pattern.decomposed.residual is not None:
        # F filters each ψ∘g, not ψ: only the bag is the reference's
        assert sorted(found) == sorted(_listed(
            reference.find_matches(pattern, graph, order=order)))
        return
    assert found == _expected(pattern, graph, order=order)
    for limit in (1, rng.randint(2, 6)):
        assert _run(find_matches, pattern, graph, order=order,
                    limit=limit)[0] == found[:limit]
    assert _run(find_matches, pattern, graph, order=order,
                exhaustive=False)[0] == found[:1]
    budget = cost * rng.randint(1, 6) - rng.randint(0, 1)
    want = _run(reference.find_matches, pattern, graph, order=order,
                max_memory=budget)
    got = _run(find_matches, pattern, graph, order=order, max_memory=budget)
    assert got[0] == found[:len(want[0])]
    _same_accounting(got[2], want[2])


def _same_accounting(got: ExecutionContext, want: ExecutionContext) -> None:
    assert got.memory_used == want.memory_used
    assert got.results == want.results
    assert (got.outcome().status, got.outcome().reason) == (
        want.outcome().status, want.outcome().reason)


def _block(rng: random.Random, prefix: str) -> MotifBlock:
    block = MotifBlock()
    names = [f"{prefix}{i}" for i in range(rng.randint(1, 3))]
    for name in names:
        block.add_node(name, attrs={"label": rng.choice("AB")})
    for i, (a, b) in enumerate(zip(names, names[1:])):
        block.add_edge(a, b, name=f"{prefix}e{i}")
    return block


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9), st.booleans())
def test_merged_derivations_and_memo_replays_keep_their_answers(seed, big):
    rng = random.Random(seed)
    graph = _graph(rng, False)
    for _ in range(SMALL_MEMBER_NODES if big else 0):  # an indexed plan
        graph.add_node(f"x{graph.num_nodes()}", label=rng.choice("AB"))
        graph.add_edge(rng.choice(graph.node_ids()), f"x{graph.num_nodes() - 1}")
    # two derivations with different node and edge names: two schemas
    pattern = GraphPattern(Disjunction([_block(rng, "p"), _block(rng, "q")]))
    db = GraphDatabase()
    db.register("d", GraphCollection([graph]))
    runs = list(db.member_runs("d", pattern.ground()))
    # a derivation runs unless the label-path filter proves, on a small
    # member, that it has no answer there
    ran = [run.ground for run in runs]
    for ground in pattern.ground():
        assert ground in ran or (not big and not brute_force_matches(
            ground, graph)), "a derivation with answers was filtered"
    for run in runs:  # each derivation's table is its own search's
        report = run.report
        assert _listed(report.mappings) == _expected(
            run.ground, graph, candidates=report.space, order=report.order)
    merged_reports = db.match("d", pattern)
    if not runs:
        assert merged_reports == {}
        return
    (merged,) = merged_reports.values()
    assert _listed(merged.mappings) == [
        answer for run in runs for answer in _listed(run.report.mappings)]
    assert len(merged.mappings.blocks) == len(runs)
    assert merged.search.results == len(merged.mappings)

    # a small member's second run is a replay of the first
    matchers = {}
    first = [run.report for run in match_members(
        [graph], pattern.ground(), matchers=matchers)]
    context = ExecutionContext()
    again = [run.report for run in match_members(
        [graph], pattern.ground(), matchers=matchers, context=context)]
    fresh_context = ExecutionContext()
    fresh = [run.report for run in match_members(
        [graph], pattern.ground(), matchers={}, context=fresh_context)]
    assert [report.replayed for report in again] == [not big] * len(runs)
    assert ([_listed(report.mappings) for report in again]
            == [_listed(report.mappings) for report in fresh]
            == [_listed(report.mappings) for report in first])
    assert context.memory_used == fresh_context.memory_used
    assert context.results == fresh_context.results
    assert context.steps == fresh_context.steps


class TestAnswerTable:
    ROWS = (("a", "b", "e"), ("c", "d", "f"))

    def table(self) -> AnswerTable:
        return AnswerTable([Block("", ("u", "v"), ("x",), self.ROWS),
                            Block("", ("w",), (), (("z",),))])

    def test_len_iteration_and_key_order(self):
        table = self.table()
        assert len(table) == 3 and bool(table) and not EMPTY_ANSWERS
        assert [(m.nodes, m.edges) for m in table] == [
            ({"u": "a", "v": "b"}, {"x": "e"}),
            ({"u": "c", "v": "d"}, {"x": "f"}),
            ({"w": "z"}, {})]
        assert list(table[0].nodes) == ["u", "v"]

    def test_indexing_and_slicing_build_mappings(self):
        table = self.table()
        assert table[2] == Mapping({"w": "z"}) == table[-1]
        assert table[1].edges == {"x": "f"}
        assert table[1:] == list(table)[1:]
        assert table[::-1] == list(table)[::-1]
        assert table[:0] == []
        with pytest.raises(IndexError):
            table[3]
        with pytest.raises(IndexError):
            table[-4]

    def test_concatenation_keeps_each_schema(self):
        table = self.table()
        both = table + table
        assert len(both) == 6 and len(both.blocks) == 4
        assert list(both) == list(table) + list(table)
        assert (EMPTY_ANSWERS + table).blocks == table.blocks
