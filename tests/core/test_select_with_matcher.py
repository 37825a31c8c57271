"""Selection through the one member loop (``planner.match_members``)."""

from collections import Counter

import pytest

from repro.core import (AttributeTuple, Graph, GraphCollection, GroundPattern,
                        cartesian_product, select)
from repro.core.motif import clique_motif
from repro.datasets import erdos_renyi_graph
from repro.matching import (GraphMatcher, MatchOptions, brute_force_matches,
                            find_matches)
from repro.matching import planner
from repro.matching.planner import SMALL_MEMBER_NODES, match_members
from repro.runtime import ExecutionContext, Outcome
from repro.storage import GraphDatabase


def node_sets(mappings):
    return {frozenset(m.nodes.items()) for m in mappings}


class TestSelectIsTheMemberLoop:
    def test_same_results_with_and_without_a_matcher_cache(self):
        graph = erdos_renyi_graph(SMALL_MEMBER_NODES, 30, num_labels=2,
                                  seed=5)
        pattern = GroundPattern(clique_motif(["L000", "L001"]))
        collection = GraphCollection([graph])
        cache = {}
        cached = list(match_members(collection, pattern.ground(),
                                    matchers=cache))
        selected = select(collection, pattern)
        assert (node_sets(m for run in cached for m in run.report.mappings)
                == node_sets(m.mapping for m in selected)
                == node_sets(brute_force_matches(pattern, graph)))
        # the caller's cache really was filled, with this member's matcher
        (matcher,) = cache.values()
        assert matcher.graph is graph and cached[0].matcher is matcher

    def test_first_match_mode(self, paper_graph):
        collection = GraphCollection([paper_graph])
        pattern = GroundPattern(clique_motif(["B"]))
        assert len(select(collection, pattern, exhaustive=False)) == 1
        assert len(select(collection, pattern, exhaustive=True)) == 2

    def test_policy_is_decided_by_member_size(self):
        """Below the constant: baseline plan on a cached index-less
        matcher; at or above it: the requested options on the cached
        indexed matcher."""
        small = erdos_renyi_graph(SMALL_MEMBER_NODES - 1, 40, seed=3,
                                  name="small")
        big = erdos_renyi_graph(SMALL_MEMBER_NODES, 40, seed=3, name="big")
        pattern = GroundPattern(clique_motif(["L000", None]))
        cache = {}
        by_name = {run.matcher.graph.name: run for run in match_members(
            GraphCollection([small, big]), [pattern], matchers=cache)}
        assert cache == {id(small): by_name["small"].matcher,
                         id(big): by_name["big"].matcher}
        assert not by_name["small"].matcher.indexed
        assert by_name["big"].matcher.indexed
        assert by_name["small"].matcher.profile_index is None
        assert by_name["small"].matcher.attribute_index is None
        assert (by_name["small"].options.local,
                by_name["small"].options.refine,
                by_name["small"].report.policy) == ("none", False,
                                                    "connected")
        assert by_name["big"].matcher.profile_index is not None
        assert (by_name["big"].options.local, by_name["big"].options.refine,
                by_name["big"].report.policy) == ("profile", True, "greedy")

    def test_flwr_uses_the_database_matcher_cache(self):
        db = GraphDatabase()
        db.register("big", erdos_renyi_graph(400, 1200, seed=3))
        env = db.query("""
            graph Q { node a <label="L000">; node b; edge e (a, b); };
            for Q exhaustive in doc("big")
            return graph { node n <who=Q.a.label>; };
        """)
        (matcher,) = db._matchers.values()  # cached pipeline was built
        assert matcher.profile_index is not None
        assert len(env["__result__"]) > 0

    def test_transient_graphs_never_enter_the_database_cache(
            self, paper_graph):
        db = GraphDatabase()
        db.register("net", paper_graph)
        pattern = GroundPattern(clique_motif(["A"]))
        product = cartesian_product(db.doc("net"), db.doc("net"))
        assert len(select(product, pattern)) > 0
        assert db._matchers == {}


def eight_a_members(count=5):
    """*count* members, each with eight answers to :data:`ONE_A`; the
    last one big enough for the indexed matcher."""
    members = []
    for m in range(count):
        graph = Graph(f"m{m}")
        size = SMALL_MEMBER_NODES if m == count - 1 else 8
        for i in range(size):
            graph.add_node(f"v{i}", label="A" if i < 8 else "B")
        members.append(graph)
    return GraphCollection(members)


ONE_A = GroundPattern(clique_motif(["A"]))


class TestFirstMatchIgnoresTheLimit:
    """``exhaustive=False`` is one mapping per graph, whatever ``limit``."""

    def test_find_matches(self):
        for graph in eight_a_members():
            assert len(find_matches(ONE_A, graph, exhaustive=False,
                                    limit=5)) == 1

    def test_graph_matcher(self):
        for graph in eight_a_members():
            report = GraphMatcher(graph).match(
                ONE_A, MatchOptions(exhaustive=False, limit=5))
            assert len(report.mappings) == 1

    def test_algebra_select(self):
        selected = select(eight_a_members(), ONE_A, exhaustive=False,
                          limit=5)
        assert Counter(m.graph.name for m in selected) == {
            f"m{m}": 1 for m in range(5)}

    def test_database_paths(self):
        db = GraphDatabase()
        db.register("d", eight_a_members())
        reports = db.match("d", ONE_A, MatchOptions(exhaustive=False,
                                                    limit=5))
        assert {name: len(r.mappings) for name, r in reports.items()} == {
            f"m{m}": 1 for m in range(5)}
        selected = db.select("d", ONE_A, exhaustive=False)
        assert Counter(m.graph.name for m in selected) == {
            f"m{m}": 1 for m in range(5)}


class TestLimitCapsTheQuery:
    """``limit`` caps the answer over all members, not each member."""

    @pytest.mark.parametrize("limit", [1, 3, 8, 13, 39, 40, 41])
    def test_select_returns_a_prefix_of_the_answer(self, limit):
        collection = eight_a_members()
        selected = select(collection, ONE_A, limit=limit)
        kept = min(40, limit)
        assert len(selected) == kept
        # members are visited in order: the cap keeps whole members first
        counts = Counter(m.graph.name for m in selected)
        assert list(counts.values()) == [8] * (kept // 8) + (
            [kept % 8] if kept % 8 else [])

    def test_the_capping_run_reports_truncated(self):
        db = GraphDatabase()
        db.register("d", eight_a_members())
        context = ExecutionContext()
        reports = db.match("d", ONE_A, MatchOptions(limit=11),
                           context=context)
        assert [len(r.mappings) for r in reports.values()] == [8, 3]
        first, capping = reports.values()
        assert first.outcome.complete
        assert capping.outcome.status is Outcome.TRUNCATED
        assert capping.outcome.reason == "answer cap of 11 reached"
        assert context.outcome().status is Outcome.TRUNCATED


def small_members(count=6):
    """*count* members below the node-count constant, each with a few
    ``L000``–``L001`` edges."""
    return GraphCollection([
        erdos_renyi_graph(12, 30, num_labels=2, seed=seed, name=f"s{seed}")
        for seed in range(count)])


EDGE = GroundPattern(clique_motif(["L000", "L001"]))


def signature(run):
    """What a member run returned and charged, wall time aside."""
    report = run.report
    outcome = report.outcome
    return {
        "position": run.position,
        "plan": (report.policy, list(report.order),
                 {name: list(mates) for name, mates in report.space.items()}),
        "mappings": [(dict(m.nodes), dict(m.edges)) for m in report.mappings],
        "search": repr(report.search),
        "outcome": (outcome.status, outcome.reason, outcome.steps,
                    outcome.results, outcome.memory_used),
    }


def member_loop(collection, options=None, context=None, matchers=None,
                stop_after=None):
    """``(signatures, replayed flags)`` of one member loop; with
    *stop_after*, call it on the context once the first run is out."""
    signatures, replayed = [], []
    for run in match_members(collection, [EDGE], options,
                             matchers=matchers, context=context):
        signatures.append(signature(run))
        replayed.append(run.report.replayed)
        if stop_after is not None and len(signatures) == 1:
            stop_after(context)
    return signatures, replayed


class TestSmallMemberMemo:
    """A small member's complete run is replayed, indistinguishably."""

    def warm(self, collection):
        matchers = {}
        _, replayed = member_loop(collection, matchers=matchers)
        assert not any(replayed)
        return matchers

    def test_a_replay_equals_a_fresh_run(self):
        collection = small_members()
        matchers = self.warm(collection)
        warm, replayed = member_loop(collection, context=ExecutionContext(),
                                     matchers=matchers)
        fresh, _ = member_loop(collection, context=ExecutionContext())
        assert all(replayed)
        assert warm == fresh
        assert any(run["mappings"] for run in warm)

    def test_a_write_reruns_only_that_member(self):
        collection = small_members()
        matchers = self.warm(collection)
        collection[2].add_node("w", label="L000")
        collection[2].add_edge("w", collection[2].node_ids()[0])
        warm, replayed = member_loop(collection, matchers=matchers)
        assert replayed == [position != 2
                            for position in range(len(collection))]
        assert warm == member_loop(collection)[0]

    @pytest.mark.parametrize("edit", ["tuple.set", "node.tuple ="])
    def test_an_attribute_edit_reruns_that_member(self, edit):
        """A label write moves Graph.version, so the edited member
        searches again and answers with the new label."""
        collection = small_members()
        matchers = self.warm(collection)
        before = member_loop(collection, matchers=matchers)[0]
        edited = collection[2]
        node_id = next(iter(before[2]["mappings"][0][0].values()))
        if edit == "tuple.set":
            edited.node(node_id).tuple.set("label", "L999")
        else:
            edited.node(node_id).tuple = AttributeTuple({"label": "L999"})
        warm, replayed = member_loop(collection, matchers=matchers)
        assert replayed == [position != 2
                            for position in range(len(collection))]
        assert warm == member_loop(collection)[0]
        assert len(warm[2]["mappings"]) < len(before[2]["mappings"])
        assert all(node_id not in mapping[0].values()
                   for mapping in warm[2]["mappings"])

    def test_a_replay_reports_its_own_wall_time(self):
        collection = small_members(2)
        matchers = self.warm(collection)
        for run in match_members(collection, [EDGE], matchers=matchers):
            assert run.report.replayed
            assert list(run.report.times) == ["replay"]
            stats = run.report.stats_dict()
            assert stats["replayed"] and list(stats["times"]) == ["replay"]
            assert stats["total_time"] == run.report.times["replay"]

    def test_a_member_grown_past_the_constant_gets_an_indexed_matcher(self):
        collection = small_members(2)
        matchers = self.warm(collection)
        grown = collection[1]
        for i in range(SMALL_MEMBER_NODES):
            grown.add_node(f"w{i}", label="L000")
        runs = list(match_members(collection, [EDGE], matchers=matchers))
        assert runs[1].matcher.indexed and not runs[1].report.replayed
        assert matchers[id(grown)] is runs[1].matcher

    def test_step_budgets_below_the_recorded_run_truncate_as_uncached(self):
        collection = small_members()
        total = ExecutionContext()
        member_loop(collection, context=total)
        matchers = self.warm(collection)
        for budget in range(0, total.steps + 2):
            for check_every in (1, 3, 128):
                def context():
                    return ExecutionContext(max_steps=budget,
                                            check_every=check_every)
                warm, _ = member_loop(collection, context=context(),
                                      matchers=matchers)
                fresh, _ = member_loop(collection, context=context())
                assert warm == fresh, (budget, check_every)

    def test_memory_budgets_below_the_recorded_run_truncate_as_uncached(self):
        collection = small_members()
        total = ExecutionContext()
        member_loop(collection, context=total)
        matchers = self.warm(collection)
        for budget in range(1, total.memory_used + 400, 97):
            warm, _ = member_loop(collection, matchers=matchers,
                                  context=ExecutionContext(max_memory=budget))
            fresh, _ = member_loop(collection,
                                   context=ExecutionContext(max_memory=budget))
            assert warm == fresh, budget
            if budget < total.memory_used:
                assert warm[-1]["outcome"][0] is Outcome.TRUNCATED

    def test_cancellation_stops_a_replay_before_the_next_member(self):
        collection = small_members()
        matchers = self.warm(collection)
        warm_context, fresh_context = ExecutionContext(), ExecutionContext()
        warm, replayed = member_loop(
            collection, context=warm_context, matchers=matchers,
            stop_after=lambda context: context.token.cancel("stop"))
        fresh, _ = member_loop(
            collection, context=fresh_context,
            stop_after=lambda context: context.token.cancel("stop"))
        assert warm == fresh
        # the first run only: the check before the next member start
        # finds the cancellation, with or without a cached matcher
        assert replayed == [True]
        for context in (warm_context, fresh_context):
            assert (context.outcome().status,
                    context.outcome().reason) == (Outcome.CANCELLED, "stop")

    def test_an_expired_deadline_stops_a_replay_before_the_next_member(self):
        collection = small_members()
        matchers = self.warm(collection)
        for cache in (matchers, None):
            now = [0.0]
            context = ExecutionContext(timeout=1.0, clock=lambda: now[0])
            runs, replayed = member_loop(
                collection, context=context, matchers=cache,
                stop_after=lambda _: now.__setitem__(0, 2.0))
            assert replayed == [cache is not None]
            assert context.outcome().status is Outcome.TIMED_OUT

    def test_a_limit_below_a_memoised_answer_runs_the_member(self):
        collection = small_members()
        matchers = self.warm(collection)
        answers = [len(run.report.mappings) for run in match_members(
            collection, [EDGE], matchers=matchers)]
        position = next(i for i, n in enumerate(answers) if n > 1)
        limit = sum(answers[:position]) + answers[position] - 1
        warm, replayed = member_loop(collection, MatchOptions(limit=limit),
                                     context=ExecutionContext(),
                                     matchers=matchers)
        fresh, _ = member_loop(collection, MatchOptions(limit=limit),
                               context=ExecutionContext())
        assert warm == fresh
        assert replayed == [True] * position + [False]
        assert warm[-1]["outcome"][:2] == (Outcome.TRUNCATED,
                                           f"answer cap of {limit} reached")
        # the capped run was not memoised: an uncapped loop finds all
        assert (member_loop(collection, matchers=matchers)[0]
                == member_loop(collection)[0])



class TestAnExpiredRequest:
    def test_a_request_that_expired_in_the_queue_builds_no_matcher(self):
        """The loop checks the context before it builds a member's first
        matcher, and records the interruption as a run would."""
        now = [0.0]
        context = ExecutionContext(timeout=1.0, clock=lambda: now[0])
        now[0] = 2.0  # the deadline passed before the loop started
        matchers = {}
        runs = list(match_members(small_members(), [EDGE],
                                  matchers=matchers, context=context))
        assert runs == [] and matchers == {}
        assert context.outcome().status is Outcome.TIMED_OUT


def a_b_pattern():
    return GroundPattern(clique_motif(["A", "B"]))


class TestTheFilterKeepsUpWithWrites:
    """A member's label paths live on its matcher, per graph version."""

    def test_a_write_recounts_only_that_member(self, monkeypatch):
        counted = []
        count = planner.enumerate_label_paths
        monkeypatch.setattr(planner, "enumerate_label_paths",
                            lambda graph: counted.append(graph.name)
                            or count(graph))
        # sparse enough to count (path_index.MAX_PATH_WALKS)
        collection = GraphCollection([
            erdos_renyi_graph(12, 16, num_labels=2, seed=seed, name=f"s{seed}")
            for seed in range(6)])
        db = GraphDatabase()
        db.register("d", collection)
        db.match("d", EDGE)
        # every member has both labels, so each counted its paths once
        assert sorted(counted) == sorted(g.name for g in collection)
        counted.clear()
        db.match("d", EDGE)
        assert counted == []
        written = collection[2]
        written.add_node("w", label="L000")
        written.add_edge("w", written.node_ids()[0])
        db.register("d", collection)
        db.match("d", EDGE)
        assert counted == [written.name]

    def test_a_write_that_adds_the_missing_label_lets_the_member_through(
            self):
        graph = Graph("g")
        graph.add_node("a", label="A")
        graph.add_node("c", label="C")
        graph.add_edge("a", "c")
        db = GraphDatabase()
        db.register("d", GraphCollection([graph]))
        filtered = []
        assert list(db.member_runs("d", [a_b_pattern()],
                                   filtered=filtered)) == []
        assert filtered == [0] and db.match("d", a_b_pattern()) == {}
        graph.add_node("b", label="B")
        graph.add_edge("a", "b")
        db.register("d", GraphCollection([graph]))
        (report,) = db.match("d", a_b_pattern()).values()
        assert len(report.mappings) == 1
