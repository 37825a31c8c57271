"""Differential test: every way to evaluate σ_P over a document agrees.

``algebra.select`` (no database), ``GraphDatabase.select`` (path-index
filter + verify), ``GraphDatabase.match`` (the served path) and a
``for P in doc(...)`` clause are thin callers of one member loop
(``matching.planner.match_members``); they must return the answer set
``brute_force_matches`` defines, on collections either side of both
access-method constants, before and after an in-place write.
"""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ForClause, Graph, GraphCollection, GraphPattern, select
from repro.core.motif import Disjunction, MotifBlock
from repro.matching import MatchOptions, brute_force_matches
from repro.matching.planner import SMALL_MEMBER_NODES
from repro.obs.explain import explain_document
from repro.storage import GraphDatabase

LABELS = "AB"
THRESHOLD = GraphDatabase.COLLECTION_INDEX_THRESHOLD


def random_member(rng: random.Random, name: str, n_nodes: int) -> Graph:
    graph = Graph(name)
    for i in range(n_nodes):
        graph.add_node(f"n{i}", label=rng.choice(LABELS))
    ids = graph.node_ids()
    for _ in range(rng.randint(n_nodes - 1, 2 * n_nodes)):
        u, v = rng.choice(ids), rng.choice(ids)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


def random_collection(rng: random.Random) -> GraphCollection:
    """Tiny members, plus up to two either side of the node-count
    constant; a member count either side of the collection threshold."""
    count = rng.choice([1, 3, THRESHOLD - 1, THRESHOLD, THRESHOLD + 1])
    sizes = [rng.randint(2, 5) for _ in range(count)]
    for position in rng.sample(range(count), min(2, count)):
        sizes[position] = SMALL_MEMBER_NODES + rng.choice([-1, 0, 1])
    return GraphCollection(
        [random_member(rng, f"g{i}", size) for i, size in enumerate(sizes)])


def random_block(rng: random.Random) -> MotifBlock:
    block = MotifBlock()
    names = [f"u{i}" for i in range(rng.randint(1, 3))]
    for name in names:
        if rng.random() < 0.8:
            block.add_node(name, attrs={"label": rng.choice(LABELS)})
        else:
            block.add_node(name)
    linked = set()
    for _ in range(rng.randint(0, 2)):
        pair = frozenset(rng.sample(names, 2)) if len(names) > 1 else None
        if pair and pair not in linked:
            linked.add(pair)
            block.add_edge(*sorted(pair))
    return block


def random_pattern(rng: random.Random, derivations: int) -> GraphPattern:
    blocks = [random_block(rng) for _ in range(derivations)]
    motif = blocks[0] if derivations == 1 else Disjunction(blocks)
    return GraphPattern(motif, name="P")


def keyed(pairs) -> Counter:
    """A multiset of (member name, node mapping)."""
    return Counter((name, frozenset(mapping.nodes.items()))
                   for name, mapping in pairs)


def matched(collection) -> Counter:
    return keyed((m.graph.name, m.mapping) for m in collection)


def reference(collection, pattern) -> Counter:
    return keyed((graph.name, mapping) for graph in collection
                 for ground in pattern.ground()
                 for mapping in brute_force_matches(ground, graph))


def per_member(answers: Counter) -> Counter:
    return Counter(name for (name, _), n in answers.items() for _ in range(n))


def check_all_paths(db, collection, pattern, rng):
    truth = reference(collection, pattern)

    # exhaustive: the four paths return exactly the reference multiset
    paths = {
        "algebra.select": matched(select(collection, pattern)),
        "db.select": matched(db.select("d", pattern)),
        "db.match": keyed((name, mapping)
                          for name, report in db.match("d", pattern).items()
                          for mapping in report.mappings),
        "for": matched(ForClause("d", pattern=pattern, exhaustive=True)
                       .bindings(db, {})),
    }
    for path, answers in paths.items():
        assert answers == truth, path

    # exhaustive=False: one mapping per matching graph, on every path
    once = Counter({name: 1 for name in per_member(truth)})
    firsts = {
        "algebra.select": matched(select(collection, pattern,
                                         exhaustive=False)),
        "db.select": matched(db.select("d", pattern, exhaustive=False)),
        "db.match": keyed(
            (name, mapping) for name, report in db.match(
                "d", pattern, MatchOptions(exhaustive=False)).items()
            for mapping in report.mappings),
        "for": matched(ForClause("d", pattern=pattern).bindings(db, {})),
    }
    for path, answers in firsts.items():
        assert per_member(answers) == once, path
        assert not answers - truth, path
        assert answers == firsts["algebra.select"], path

    # limit: caps the query's whole answer, across members and
    # derivations
    limit = rng.randint(1, 3)
    limited = {
        "algebra.select": matched(select(collection, pattern, limit=limit)),
        "db.match": keyed(
            (name, mapping) for name, report in db.match(
                "d", pattern, MatchOptions(limit=limit)).items()
            for mapping in report.mappings),
    }
    for path, answers in limited.items():
        assert sum(answers.values()) == min(sum(truth.values()), limit), path
        assert not answers - truth, path

    # EXPLAIN shows the plan match really ran, member by member
    grounds = pattern.ground()
    reports = db.match("d", grounds[0])
    explained = explain_document(db, "d", grounds[0])["graphs"]
    assert [entry["graph"] for entry in explained] == list(reports)
    for entry, graph in zip(explained, collection):
        report = reports[graph.name]
        small = graph.num_nodes() < SMALL_MEMBER_NODES
        assert entry["local"] == ("none" if small else "profile")
        assert entry["refine"] == (report.refinement is not None) == (not small)
        assert entry["order_policy"] == report.policy == (
            "connected" if small else "greedy")
        assert entry["order"] == report.order


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from([1, 2]))
def test_every_selection_path_returns_the_brute_force_answers(seed,
                                                              derivations):
    rng = random.Random(seed)
    collection = random_collection(rng)
    pattern = random_pattern(rng, derivations)
    db = GraphDatabase()
    db.register("d", collection)
    check_all_paths(db, collection, pattern, rng)

    # an in-place write + re-register of the same collection object
    written = collection[rng.randrange(len(collection))]
    anchor = rng.choice(written.node_ids())
    for i in range(2):
        written.add_node(f"w{i}", label=rng.choice(LABELS))
        written.add_edge(anchor, f"w{i}")
    db.register("d", collection)
    check_all_paths(db, collection, pattern, rng)
