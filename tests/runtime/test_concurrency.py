"""Governance primitives under real thread concurrency.

The service layer cancels queries from other threads and shares tokens
across contexts; these tests exercise exactly those interactions with
real searches running in worker threads (no fake clocks).
"""

import threading
import time

import pytest

from repro.core import (
    Graph,
    GraphCollection,
    GroundPattern,
    SimpleMotif,
    clique_motif,
    select,
)
from repro.matching import find_matches
from repro.runtime import (
    CancellationToken,
    ExecutionContext,
    Outcome,
    QueryCancelled,
)


def dense_graph(nodes: int = 24, label: str = "A") -> Graph:
    """A complete graph with one label: a combinatorially huge search."""
    graph = Graph("dense")
    ids = [f"v{i}" for i in range(nodes)]
    for node_id in ids:
        graph.add_node(node_id, label=label)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            graph.add_edge(a, b)
    return graph


def heavy_pattern(size: int = 7, label: str = "A") -> GroundPattern:
    """A path pattern whose match count on a dense graph is enormous."""
    motif = SimpleMotif()
    for i in range(size):
        motif.add_node(f"u{i}", attrs={"label": label})
    for i in range(size - 1):
        motif.add_edge(f"u{i}", f"u{i + 1}", name=f"e{i}")
    return GroundPattern(motif)


class TestCrossThreadCancellation:
    def test_cancel_from_another_thread_mid_search(self):
        graph = dense_graph()
        context = ExecutionContext(check_every=64)
        done = threading.Event()
        bucket = {}

        def search():
            bucket["results"] = find_matches(heavy_pattern(), graph,
                                             context=context)
            done.set()

        worker = threading.Thread(target=search)
        worker.start()
        time.sleep(0.15)  # let the search get deep
        assert not done.is_set(), "search finished before it was cancelled"
        context.token.cancel("cancelled from the controlling thread")
        assert done.wait(timeout=10), "cancellation was not observed"
        worker.join()
        outcome = context.outcome()
        assert outcome.status is Outcome.CANCELLED
        assert "controlling thread" in outcome.reason
        # partial results accumulated before the cancel are preserved
        assert len(bucket["results"]) > 0

    def test_two_contexts_sharing_one_token(self):
        graph = dense_graph()
        token = CancellationToken()
        contexts = [ExecutionContext(token=token, check_every=64)
                    for _ in range(2)]
        done = threading.Barrier(3)
        outcomes = {}

        def search(index, context):
            find_matches(heavy_pattern(), graph, context=context)
            outcomes[index] = context.outcome()
            done.wait(timeout=10)

        workers = [threading.Thread(target=search, args=(i, c))
                   for i, c in enumerate(contexts)]
        for worker in workers:
            worker.start()
        time.sleep(0.15)
        token.cancel("shared token tripped")
        done.wait(timeout=10)
        for worker in workers:
            worker.join()
        # one cancel stops every execution sharing the token
        assert outcomes[0].status is Outcome.CANCELLED
        assert outcomes[1].status is Outcome.CANCELLED

    def test_cancel_is_idempotent_across_threads(self):
        token = CancellationToken()
        barrier = threading.Barrier(8)

        def cancel(index):
            barrier.wait(timeout=5)
            token.cancel(f"racer {index}")

        threads = [threading.Thread(target=cancel, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert token.is_cancelled()
        # exactly one reason won, and it is one of the racers'
        assert token.reason.startswith("racer ")

    def test_already_cancelled_token_stops_new_context_immediately(self):
        token = CancellationToken()
        token.cancel("pre-cancelled")
        context = ExecutionContext(token=token)
        with pytest.raises(QueryCancelled):
            context.check()


class TestContextIndependence:
    def test_sibling_contexts_do_not_share_budgets(self):
        """Two requests derived from the same defaults stay independent."""
        graph = dense_graph(nodes=10)
        pattern = GroundPattern(clique_motif(["A", "A"]))
        first = ExecutionContext(max_steps=100_000)
        second = ExecutionContext(max_steps=100_000)
        find_matches(pattern, graph, context=first)
        assert first.steps > 0
        assert second.steps == 0
        assert second.outcome().complete

    def test_concurrent_searches_with_private_contexts(self):
        graph = dense_graph(nodes=12)
        pattern = GroundPattern(clique_motif(["A", "A", "A"]))
        results = {}

        def run(index):
            context = ExecutionContext()
            mappings = select(GraphCollection([graph]), pattern, limit=50,
                              context=context)
            results[index] = (len(mappings), context.outcome().status)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 6
        for count, status in results.values():
            assert count == 50
            assert status is Outcome.TRUNCATED

    def test_concurrent_queries_share_small_member_memos(self):
        """Threads memoising and replaying the same small members, with
        frequent switches, each get the whole answer and charges."""
        import sys

        from repro.storage import GraphDatabase
        from tests.service.reference import answer_rows

        members = []
        for m in range(8):
            graph = Graph(f"m{m}")
            for i in range(6 + m):
                graph.add_node(f"v{i}", label="A")
            for i in range(5 + m):
                graph.add_edge(f"v{i}", f"v{i + 1}")
            members.append(graph)
        db = GraphDatabase()
        db.register("d", GraphCollection(members))
        pattern = GroundPattern(clique_motif(["A", "A"]))
        expected = ExecutionContext()
        truth = sorted((row["graph"], sorted(row["nodes"].items()))
                       for row in answer_rows(db.execute(
                           "d", pattern, context=expected).blocks))
        db = GraphDatabase()
        db.register("d", GraphCollection(members))
        failures = []

        def run():
            for _ in range(30):
                context = ExecutionContext()
                rows = answer_rows(
                    db.execute("d", pattern, context=context).blocks)
                got = sorted((row["graph"], sorted(row["nodes"].items()))
                             for row in rows)
                if got != truth or context.steps != expected.steps:
                    failures.append((len(got), context.steps))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert all(member.report.replayed
                   for member in db.member_runs("d", pattern.ground()))
