"""Differential test: every way to evaluate σ_P over a document agrees.

``algebra.select`` (no database), ``GraphDatabase.select``,
``GraphDatabase.match`` (the served path) and a ``for P in doc(...)``
clause are thin callers of one member loop
(``matching.planner.match_members``), label-path filter included; they
must return the answer set ``brute_force_matches`` defines, on members
either side of the access-method constant, before and after an in-place
write.  Members draw their labels from different alphabets, so the
filter rejects some of them: no member with an answer may be among
those.  The memo
leg interleaves writes to random members with repeated queries, so most
small members are replayed from their memoised run: the answers stay
the brute-force ones, and every run — replayed or not — reports the
plan, counters and outcome a fresh, uncached run reports.
"""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ForClause, Graph, GraphCollection, GraphPattern, select
from repro.core.motif import Disjunction, MotifBlock
from repro.matching import MatchOptions, brute_force_matches
from repro.matching.planner import SMALL_MEMBER_NODES, match_members
from repro.obs.explain import explain_document
from repro.runtime import ExecutionContext
from repro.service import QueryService, ServiceConfig
from repro.storage import GraphDatabase
from tests.service.reference import answer_rows

LABELS = "ABC"
#: a member's labels come from one of these, a pattern's from LABELS
ALPHABETS = ("AB", "AC", "BC", "ABC")


def random_member(rng: random.Random, name: str, n_nodes: int) -> Graph:
    graph = Graph(name)
    alphabet = rng.choice(ALPHABETS)
    for i in range(n_nodes):
        graph.add_node(f"n{i}", label=rng.choice(alphabet))
    ids = graph.node_ids()
    for _ in range(rng.randint(n_nodes - 1, 2 * n_nodes)):
        u, v = rng.choice(ids), rng.choice(ids)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


def random_collection(rng: random.Random) -> GraphCollection:
    """Tiny members, plus up to two either side of the node-count
    constant."""
    count = rng.choice([1, 3, 12, 33])
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


def check_the_filter(db, collection, pattern, truth):
    """The filter keeps every member with an answer, and only small
    members are ever filtered; returns how many it rejected."""
    filtered = []
    list(db.member_runs("d", pattern.ground(), filtered=filtered))
    answering = set(per_member(truth))
    for position in filtered:
        graph = collection[position]
        assert graph.name not in answering, graph.name
        assert graph.num_nodes() < SMALL_MEMBER_NODES
    return len(filtered)


def check_all_paths(db, collection, pattern, rng):
    truth = reference(collection, pattern)
    check_the_filter(db, collection, pattern, truth)

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

    # EXPLAIN shows the plan match really ran, member by member, and
    # the members the filter kept out
    grounds = pattern.ground()
    reports = db.match("d", grounds[0])
    document = explain_document(db, "d", grounds[0])
    explained = document["graphs"]
    assert [entry["graph"] for entry in explained] == list(reports)
    assert document["members"] == len(collection)
    assert document["filtered"] == len(collection) - len(reports)
    by_name = {graph.name: graph for graph in collection}
    for entry in explained:
        report = reports[entry["graph"]]
        small = by_name[entry["graph"]].num_nodes() < SMALL_MEMBER_NODES
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


def run_signatures(runs):
    """Per member run: what it planned, searched, found and charged."""
    out = []
    for run in runs:
        report, outcome = run.report, run.report.outcome
        out.append((run.position, report.policy, list(report.order),
                    [(dict(m.nodes), dict(m.edges)) for m in report.mappings],
                    repr(report.search),
                    (outcome.status, outcome.steps, outcome.results,
                     outcome.memory_used)))
    return out


def check_memo_paths(service, collection, pattern, options, truths):
    """Every path against *truths* (the brute-force answer per
    derivation); returns how many member runs were replayed, and how
    many ran on small members (those the filter kept)."""
    db = service.database
    truth = sum(truths, Counter())
    assert matched(db.select("d", pattern)) == truth, "db.select"
    assert keyed((name, mapping)
                 for name, report in db.match("d", pattern).items()
                 for mapping in report.mappings) == truth, "db.match"
    rows = answer_rows(db.execute("d", pattern).blocks)
    served = service.execute(pattern, document="d").results
    for path, answer in (("db.execute", rows), ("QueryService", served)):
        assert Counter((row["graph"], frozenset(row["nodes"].items()))
                       for row in answer) == truth, path

    grounds = pattern.ground()
    explained = explain_document(db, "d", grounds[0], analyze=True)
    assert {entry["graph"]: entry["actual"]["mappings"]
            for entry in explained["graphs"]
            if entry["actual"]["mappings"]} == dict(per_member(truths[0])), (
        "EXPLAIN ANALYZE")

    warm = list(db.member_runs("d", grounds, options, ExecutionContext()))
    fresh = match_members(collection, grounds, options, matchers={},
                          context=ExecutionContext())
    assert run_signatures(warm) == run_signatures(fresh)
    return (sum(run.report.replayed for run in warm),
            sum(run.matcher.graph.num_nodes() < SMALL_MEMBER_NODES
                for run in warm))


def test_the_generator_exercises_the_filter():
    """The generated collections and patterns above are ones the filter
    really prunes: over a fixed run of seeds it rejects members."""
    rejected = 0
    for seed in range(20):
        rng = random.Random(seed)
        collection = random_collection(rng)
        pattern = random_pattern(rng, 1)
        db = GraphDatabase()
        db.register("d", collection)
        rejected += check_the_filter(db, collection, pattern,
                                     reference(collection, pattern))
    assert rejected > 0


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from([1, 2]))
def test_replayed_members_answer_like_fresh_runs(seed, derivations):
    rng = random.Random(seed)
    collection = random_collection(rng)
    pattern = random_pattern(rng, derivations)
    service = QueryService(ServiceConfig(workers=1,
                                         default_max_results=None))
    try:
        service.register("d", collection)
        replays = small_unlimited = 0
        for write in range(3):
            truths = [keyed((graph.name, mapping) for graph in collection
                            for mapping in brute_force_matches(ground, graph))
                      for ground in pattern.ground()]
            options = rng.choice([None, MatchOptions(exhaustive=False),
                                  MatchOptions(limit=rng.randint(1, 6))])
            for _ in range(2):
                replayed, small = check_memo_paths(service, collection,
                                                   pattern, options, truths)
                replays += replayed
                if options is None or options.limit is None:
                    small_unlimited += small
            written = collection[rng.randrange(len(collection))]
            anchor = rng.choice(written.node_ids())
            written.add_node(f"w{write}", label=rng.choice(LABELS))
            written.add_edge(anchor, f"w{write}")
            service.register("d", collection)
        # a run that reaches ``limit`` is never memoised, so only a round
        # without one is sure to replay, and only on a small member the
        # filter kept
        if small_unlimited:
            assert replays > 0
    finally:
        service.shutdown()
