"""QueryService facade: execution, caching, cancellation, governance."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.datasets.random_graphs import erdos_renyi_graph
from repro.matching.planner import SMALL_MEMBER_NODES
from repro.obs.trace import SpanCollector, tracer
from repro.runtime import Outcome
from repro.service import QueryRequest, QueryService, ServiceConfig
from repro.service import service as service_module
from repro.service.resilience import BreakerRegistry


def make_service(**overrides) -> QueryService:
    defaults = dict(workers=2, default_timeout=10.0)
    defaults.update(overrides)
    service = QueryService(ServiceConfig(**defaults))
    service.register("data", erdos_renyi_graph(
        150, 450, num_labels=5, seed=7, name="g"))
    return service


EDGE_QUERY = ('graph P { node u1 <label="L001">; node u2 <label="L002">; '
              'edge e1 (u1, u2); }')

#: texts the analyzer passes but ``compile_pattern`` refuses
COMPILER_REFUSED = ["graph P { node a <label=x>; }",
                    "graph P { node a; unify a, a where a.x > 1; }"]


def dense_service(**overrides) -> QueryService:
    """A service over a dense one-label graph (slow exhaustive queries),
    large enough that baseline and optimized requests plan differently."""
    from repro.core import Graph

    graph = Graph("dense")
    ids = [f"v{i}" for i in range(SMALL_MEMBER_NODES)]
    for node_id in ids:
        graph.add_node(node_id, label="A")
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            graph.add_edge(a, b)
    defaults = dict(workers=2, default_timeout=30.0,
                    default_max_results=None)
    defaults.update(overrides)
    service = QueryService(ServiceConfig(**defaults))
    service.register("data", graph)
    return service


HEAVY_QUERY = ("graph P { "
               + " ".join(f'node u{i} <label="A">;' for i in range(7))
               + " ".join(f' edge e{i} (u{i}, u{i + 1});' for i in range(6))
               + " }")


def capped_service(**overrides) -> QueryService:
    """A service over five members with eight answers each to
    :data:`CAP_QUERY` (40 in all)."""
    from repro.core import Graph, GraphCollection

    members = []
    for m in range(5):
        graph = Graph(f"m{m}")
        for i in range(8):
            graph.add_node(f"v{i}", label="A")
        members.append(graph)
    defaults = dict(workers=1, default_timeout=10.0)
    defaults.update(overrides)
    service = QueryService(ServiceConfig(**defaults))
    service.register("data", GraphCollection(members))
    return service


CAP_QUERY = 'graph P { node a <label="A">; }'


class TestExecution:
    def test_execute_returns_rows_and_outcome(self):
        with make_service() as service:
            response = service.execute(EDGE_QUERY)
            assert response.outcome.status is Outcome.COMPLETE
            assert response.error is None
            for row in response.results:
                assert set(row) == {"graph", "nodes", "edges"}
                assert row["nodes"]  # pattern nodes are mapped

    def test_compiled_pattern_bypasses_caches(self):
        from repro.core import GroundPattern, clique_motif

        with make_service() as service:
            pattern = GroundPattern(clique_motif(["L001", "L002"]))
            response = service.execute(pattern)
            assert response.cache == "bypass"
            assert response.outcome.status is Outcome.COMPLETE

    def test_compile_error_is_a_rejection_not_an_exception(self):
        with make_service() as service:
            response = service.execute("graph P { this is not a pattern")
            assert response.outcome.status is Outcome.REJECTED
            assert response.outcome.reason == "invalid_query"
            assert response.outcome.detail["diagnostics"]
            assert response.results == []

    def test_executions_of_one_text_reuse_its_ground_patterns(
            self, monkeypatch):
        from repro.core import pattern as pattern_module

        built = []
        original = pattern_module.GroundPattern.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        with make_service() as service:
            first = service.execute(EDGE_QUERY, use_cache=False)
            prepared, hit = service.plan_cache.prepare(EDGE_QUERY)
            assert hit
            grounds = prepared.pattern.ground()
            monkeypatch.setattr(pattern_module.GroundPattern, "__init__",
                                counting_init)
            second = service.execute(EDGE_QUERY, use_cache=False)
            assert second.cache != "hit"
            assert built == []  # no derivation, F_u or group recompiled
            again = prepared.pattern.ground()
            assert again is not grounds  # a new list ...
            assert all(a is b for a, b in zip(again, grounds))  # ... same objects
            assert second.results == first.results

    def test_unknown_document_is_an_error_response(self):
        with make_service() as service:
            response = service.execute(EDGE_QUERY, document="nope")
            assert response.error is not None


class TestResultCache:
    def test_repeat_query_hits_cache_and_matches_cold_results(self):
        with make_service() as service:
            cold = service.execute(EDGE_QUERY)
            warm = service.execute(EDGE_QUERY)
            assert cold.cache == "miss"
            assert warm.cache == "hit"
            assert warm.results == cold.results
            assert service.metrics.value("result_cache_hits") == 1

    def test_replies_share_nothing_with_the_cache(self):
        """What a caller does to a reply, miss or hit, never reaches the
        cached answer: every reply gets rows and an outcome of its own."""
        with make_service() as service:
            cold = service.execute(EDGE_QUERY)
            expected = [dict(row, nodes=dict(row["nodes"]),
                             edges=dict(row["edges"]))
                        for row in cold.results]
            expected_outcome = cold.outcome.to_dict()
            assert cold.cache == "miss" and expected
            for reply in (cold, service.execute(EDGE_QUERY)):
                reply.results[0]["nodes"]["u1"] = "BOGUS"
                with pytest.raises(AttributeError):
                    reply.results.append({"graph": "BOGUS"})
                reply.outcome.detail["BOGUS"] = True
                reply.degradation.append("BOGUS")
                again = service.execute(EDGE_QUERY)
                assert again.cache == "hit"
                assert again.results == expected
                assert again.outcome.to_dict() == expected_outcome
                assert again.degradation == []

    def test_mutation_invalidates_via_version(self):
        with make_service() as service:
            service.execute(EDGE_QUERY)
            graph = service.database.doc("data")[0]
            graph.add_node("fresh", label="L001")
            response = service.execute(EDGE_QUERY)
            assert response.cache == "miss"

    def test_another_collection_with_the_same_version_sum_misses(self):
        """Registering a different collection whose member versions add
        up to the old sum must not replay the old collection's rows."""
        from repro.core import Graph

        def one_edge(label):
            graph = Graph("g")
            graph.add_node("x", label=label)
            graph.add_node("y", label=label)
            graph.add_edge("x", "y")
            return graph

        query = ('graph P { node a <label="A">; node b <label="A">; '
                 'edge e (a, b); }')
        with QueryService(ServiceConfig(workers=1)) as service:
            service.register("data", one_edge("A"))
            first = service.execute(query)
            assert (first.cache, len(first.results)) == ("miss", 2)
            version = service.document_version("data")
            service.register("data", one_edge("B"))
            assert service.document_version("data") == version
            again = service.execute(query)
            assert again.results == service.execute(
                query, use_cache=False).results == []
            assert again.cache == "miss"

    def test_same_object_re_register_keeps_its_entries(self):
        """Re-registering the registered object changes nothing for the
        cache; an in-place write before it invalidates via the version."""
        with make_service() as service:
            collection = service.database.doc("data")
            cold = service.execute(EDGE_QUERY)
            service.register("data", collection)
            warm = service.execute(EDGE_QUERY)
            assert (cold.cache, warm.cache) == ("miss", "hit")
            collection[0].add_node("fresh", label="L001")
            service.register("data", collection)
            assert [service.execute(EDGE_QUERY).cache
                    for _ in range(2)] == ["miss", "hit"]

    def test_no_cache_request_bypasses(self):
        with make_service() as service:
            service.execute(EDGE_QUERY)
            response = service.execute(EDGE_QUERY, use_cache=False)
            assert response.cache == "bypass"

    def test_different_limits_are_different_entries(self):
        with make_service() as service:
            a = service.execute(EDGE_QUERY, limit=1)
            b = service.execute(EDGE_QUERY, limit=2)
            assert a.cache == "miss" and b.cache == "miss"
            assert len(a.results) == 1
            assert len(b.results) == 2

    def test_budget_truncated_results_not_replayed_without_budget(self):
        """A tiny max_steps run must not poison the unbudgeted entry."""
        with make_service() as service:
            tight = service.execute(EDGE_QUERY, max_steps=10)
            assert tight.outcome.status is Outcome.TRUNCATED
            full = service.execute(EDGE_QUERY)
            assert full.cache == "miss"  # different budgets, different key
            assert full.outcome.status is Outcome.COMPLETE
            assert len(full.results) >= len(tight.results)
            # the truncated entry is still a valid hit for an identical ask
            again = service.execute(EDGE_QUERY, max_steps=10)
            assert again.cache == "hit"
            assert again.results == tight.results

    def test_timed_out_runs_are_not_cached(self):
        with dense_service() as service:
            first = service.execute(HEAVY_QUERY, timeout=0.1)
            assert first.outcome.status is Outcome.TIMED_OUT
            second = service.execute(HEAVY_QUERY, timeout=0.1)
            assert second.cache == "miss"  # never served from cache
            assert service.metrics.value("result_cache_hits") == 0


class TestPlanCache:
    def test_prepared_query_is_reused_when_execution_repeats(self):
        with make_service() as service:
            cold = service.execute(EDGE_QUERY, use_cache=True)
            # bypass only the result cache so execution happens again
            warm = service.execute(EDGE_QUERY, use_cache=False)
            assert warm.cache == "bypass"
            assert warm.results == cold.results
            assert service.metrics.value("plan_cache_hits") == 1

    @pytest.mark.parametrize("text", [
        EDGE_QUERY, "graph P { node v1; } where Q.x > 1", "graph P { node",
        *COMPILER_REFUSED])
    def test_each_query_text_is_parsed_once(self, monkeypatch, text):
        """One parse per new text — valid, invalid, unparsable or refused
        by the compiler — and none for a repeat, whichever layer would
        have asked for it."""
        import repro.analysis.analyzer as analyzer
        import repro.lang.compiler as compiler
        from repro.lang.parser import parse_graph_decl

        parsed = []

        def counting(source):
            parsed.append(source)
            return parse_graph_decl(source)

        monkeypatch.setattr(compiler, "parse_graph_decl", counting)
        monkeypatch.setattr(analyzer, "parse_graph_decl", counting)
        with make_service() as service:
            first = service.execute(text, use_cache=False)
            assert parsed == [text]
            again = service.execute(text, use_cache=False)
            assert parsed == [text]
            assert again.outcome.status is first.outcome.status
            assert again.results == first.results


class TestAnswerCap:
    """``limit`` caps the query's whole answer, not each member's."""

    def test_limit_caps_the_whole_answer(self):
        with capped_service() as service:
            response = service.execute(CAP_QUERY, limit=3)
            assert len(response.results) == 3
            assert response.outcome.status is Outcome.TRUNCATED
            assert "answer cap of 3" in response.outcome.reason

    def test_the_default_cap_stops_exactly_at_it(self):
        with capped_service(default_max_results=10) as service:
            response = service.execute(CAP_QUERY)
            assert len(response.results) == 10
            assert response.outcome.status is Outcome.TRUNCATED

    def test_a_tighter_limit_beats_the_default_cap(self):
        with capped_service(default_max_results=10) as service:
            response = service.execute(CAP_QUERY, limit=3)
            assert len(response.results) == 3
            assert response.outcome.status is Outcome.TRUNCATED

    def test_an_answer_that_fills_the_cap_is_truncated(self):
        # reaching the cap stops the query: whether more answers exist
        # is not looked into
        with capped_service() as service:
            response = service.execute(CAP_QUERY, limit=40)
            assert len(response.results) == 40
            assert response.outcome.status is Outcome.TRUNCATED


class TestGovernance:
    def test_request_budgets_tighten_but_never_exceed_defaults(self):
        config = ServiceConfig(workers=1, default_timeout=5.0,
                               default_max_results=10)
        context = config.derive_context(timeout=60.0)
        assert context.timeout == 5.0
        tighter = config.derive_context(timeout=0.5)
        assert tighter.timeout == 0.5
        with capped_service(default_timeout=5.0,
                            default_max_results=10) as service:
            looser = service.execute(CAP_QUERY, limit=50)
            assert len(looser.results) == 10
            assert looser.outcome.status is Outcome.TRUNCATED
            assert "answer cap of 10" in looser.outcome.reason

    def test_per_request_timeout(self, monkeypatch):
        # the search's own deadline must end the run: the watchdog's
        # wall (4 x 0.1 s by default) can fire first on a loaded host,
        # answering TIMED_OUT with no steps counted, and has its own tests
        monkeypatch.setattr(service_module, "WATCHDOG_MULTIPLE", 100.0)
        with dense_service() as service:
            response = service.execute(HEAVY_QUERY, timeout=0.1)
            assert response.outcome.status is Outcome.TIMED_OUT
            assert response.outcome.steps > 0

    def test_time_spent_queued_counts_against_the_deadline(self):
        """The deadline starts at admission: a 0.2 s request queued
        behind a 0.5 s blocker on the one worker has no time left when
        it starts, and ends TIMED_OUT by its own deadline (the watchdog
        wall, 4 x 0.2 s, is still ahead)."""
        with make_service(workers=1) as service:
            service.execute_hook = lambda request: (
                time.sleep(0.5) if request.request_id == "blocker"
                else None)
            blocker = service.submit(QueryRequest(
                query=EDGE_QUERY, request_id="blocker", use_cache=False))
            queued = service.submit(QueryRequest(
                query=EDGE_QUERY, timeout=0.2, use_cache=False))
            response = queued.result(timeout=10)
            assert response.outcome.status is Outcome.TIMED_OUT
            assert "deadline of 0.2s exceeded" in response.outcome.reason
            assert blocker.result(timeout=10).outcome.status is (
                Outcome.COMPLETE)

    def test_baseline_request_honours_the_deadline(self):
        """Scan retrieval without pruning runs under the same per-request
        deadline: the deadline ends it, not the watchdog's wall."""
        with dense_service() as service:
            started = time.monotonic()
            response = service.execute(HEAVY_QUERY, timeout=0.2,
                                       baseline=True, use_cache=False)
            elapsed = time.monotonic() - started
            assert response.outcome.status is Outcome.TIMED_OUT
            assert not response.outcome.reason.startswith("watchdog")
            assert elapsed < service_module.WATCHDOG_MULTIPLE * 0.2

    def test_cancel_in_flight_request(self):
        with dense_service() as service:
            request = QueryRequest(query=HEAVY_QUERY, use_cache=False)
            future = service.submit(request)
            time.sleep(0.15)
            assert service.cancel(request.request_id, "test cancel")
            response = future.result(timeout=30)
            assert response.outcome.status is Outcome.CANCELLED
            assert "test cancel" in response.outcome.reason

    def test_cancel_unknown_id_returns_false(self):
        with make_service() as service:
            assert not service.cancel("never-submitted")

    def test_duplicate_in_flight_id_is_rejected(self):
        """Reusing a running query's id must not orphan its cancel token."""
        with dense_service() as service:
            first = QueryRequest(query=HEAVY_QUERY, request_id="dup",
                                 use_cache=False)
            second = QueryRequest(query=HEAVY_QUERY, request_id="dup",
                                  use_cache=False)
            future = service.submit(first)
            response = service.submit(second).result(timeout=5)
            assert response.rejected
            assert "duplicate" in response.outcome.reason
            # the original request is still tracked and cancellable
            assert service.cancel("dup", "test cancel")
            assert future.result(timeout=30).outcome.status is (
                Outcome.CANCELLED)
            snap = service.stats()
            assert snap["submitted"] == snap["admitted"] + snap["rejected"]


class TestAdmission:
    def test_load_shedding_rejects_with_structured_outcome(self):
        with dense_service(workers=1, queue_depth=1,
                           default_timeout=1.0) as service:
            requests = [QueryRequest(query=HEAVY_QUERY, client=f"c{i}",
                                     use_cache=False)
                        for i in range(6)]
            futures = [service.submit(r) for r in requests]
            responses = [f.result(timeout=30) for f in futures]
            rejected = [r for r in responses if r.rejected]
            assert rejected, "expected load shedding with 1 worker + queue 1"
            for response in rejected:
                assert response.outcome.status is Outcome.REJECTED
                assert response.outcome.steps == 0  # never executed
            snap = service.stats()
            assert snap["submitted"] == snap["admitted"] + snap["rejected"]

    def test_invalid_query_never_reaches_the_pool(self):
        with make_service() as service:
            service.execute(EDGE_QUERY)  # warm baseline counters
            before = service.stats()
            response = service.execute(
                "graph P { node v1; } where Q.x > 1")
            assert response.outcome.status is Outcome.REJECTED
            assert response.outcome.reason == "invalid_query"
            diags = response.outcome.detail["diagnostics"]
            assert diags and diags[0]["code"] == "GQL001"
            assert diags[0]["severity"] == "error"
            after = service.stats()
            assert after["invalid_queries"] == before["invalid_queries"] + 1
            assert after["rejected"] == before["rejected"] + 1
            assert after["submitted"] == before["submitted"] + 1
            assert after["admitted"] == before["admitted"]  # never admitted
            assert after["executed"] == before["executed"]  # no worker burned
            assert after["submitted"] == after["admitted"] + after["rejected"]

    @pytest.mark.parametrize("text", COMPILER_REFUSED)
    def test_compiler_refusal_is_an_invalid_query(self, text):
        """A text the analyzer passes but the compiler refuses resolves
        its future like any other invalid query: REJECTED before
        admission, counted, cached, never an exception out of submit."""
        with make_service() as service:
            future = service.submit(QueryRequest(query=text))
            response = future.result(timeout=30)
            assert response.outcome.status is Outcome.REJECTED
            assert response.outcome.reason == "invalid_query"
            (diag,) = response.outcome.detail["diagnostics"]
            assert diag["code"] == "GQL012" and diag["line"] == 1
            assert service.execute(text).outcome.status is Outcome.REJECTED
            snap = service.stats()
            assert snap["invalid_queries"] == snap["rejected"] == 2
            assert snap["submitted"] == snap["admitted"] + snap["rejected"]
            assert snap["admitted"] == snap["executed"] == 0
            assert snap["plan_cache"]["misses"] == 1
            assert snap["plan_cache"]["hits"] == 1

    def test_warnings_do_not_reject(self):
        # a disconnected pattern is a WARNING: admission only acts on
        # error-severity findings
        with make_service() as service:
            response = service.execute(
                'graph P { node u1 <label="L001">; node u2 <label="L002">; }')
            assert response.outcome.status is Outcome.COMPLETE

    def test_validation_verdicts_are_cached(self):
        with make_service() as service:
            bad = "graph P { node v1; } where Q.x > 1"
            service.execute(bad)
            service.execute(bad)
            snap = service.stats()
            assert snap["invalid_queries"] == 2
            # the verdict lives in the prepared-query cache: one miss for
            # the new text, one hit for its repeat
            assert snap["plan_cache"]["misses"] == 1
            assert snap["plan_cache"]["hits"] == 1

    def test_stats_snapshot_shape(self):
        with make_service() as service:
            service.execute(EDGE_QUERY)
            snap = service.stats()
            assert snap["documents"] == ["data"]
            assert snap["result_cache"]["capacity"] > 0
            assert snap["latency"]["count"] >= 1
            assert snap["outcomes"]["COMPLETE"] >= 1

    def test_stats_request_counters_not_clobbered_by_lru_probes(self):
        """Per-probe LRU counters live under "lru"; the request-level
        hit/miss counters must survive the merge."""
        with make_service() as service:
            service.execute(EDGE_QUERY)  # miss (stored)
            service.execute(EDGE_QUERY)  # hit
            snap = service.stats()
            assert snap["result_cache"]["hits"] == (
                service.metrics.value("result_cache_hits")) == 1
            assert snap["result_cache"]["misses"] == (
                service.metrics.value("result_cache_misses")) == 1
            # the raw LRU probe counters are namespaced, not merged over
            assert set(snap["result_cache"]["lru"]) == {"hits", "misses"}
            assert set(snap["plan_cache"]["lru"]) == {"hits", "misses"}

    def test_unadmitted_results_do_not_count_as_cache_misses(self):
        with dense_service() as service:
            response = service.execute(HEAVY_QUERY, timeout=0.1)
            assert response.outcome.status is Outcome.TIMED_OUT
            # TIMED_OUT is never admitted, so no miss is recorded
            assert service.metrics.value("result_cache_misses") == 0


def fake_clock_breakers(service) -> list:
    """Give *service* threshold-1 breakers on a settable clock."""
    now = [100.0]
    service.breakers = BreakerRegistry(threshold=1, cooldown=5.0,
                                       clock=lambda: now[0])
    return now


class TestRequestAccounting:
    #: every way a request ends: the one counter that moves, the status
    ENDINGS = {
        "invalid text": ("rejected", Outcome.REJECTED),
        "breaker shed": ("shed", Outcome.SHED),
        "deadline shed": ("shed", Outcome.SHED),
        "queue full": ("rejected", Outcome.REJECTED),
        "client quota": ("rejected", Outcome.REJECTED),
        "duplicate id": ("rejected", Outcome.REJECTED),
        "hand-off failure": ("admitted", Outcome.CANCELLED),
        "draining": ("rejected", Outcome.REJECTED),
        "cache hit": ("admitted", Outcome.COMPLETE),
        "executed miss": ("admitted", Outcome.COMPLETE),
        "watchdog abandon": ("admitted", Outcome.TIMED_OUT),
    }

    @pytest.mark.parametrize("ending", list(ENDINGS))
    def test_every_ending_is_accounted_once(self, ending, monkeypatch):
        """One counter moves by one, the root span finishes and the
        future resolves once, the slot comes back, no probe stays held
        (the request under test is the HALF_OPEN probe wherever it gets
        past the breaker)."""
        counter, status = self.ENDINGS[ending]
        monkeypatch.setattr(service_module, "WATCHDOG_MULTIPLE", 2.0)
        service = make_service(workers=2, queue_depth=0, per_client=1)
        now = fake_clock_breakers(service)
        gate = threading.Event()
        service.execute_hook = lambda request: (
            gate.wait(10) if request.request_id.startswith("block") else None)
        blockers = [service.submit(QueryRequest(
            query=EDGE_QUERY, client=client, request_id=f"block-{client}",
            use_cache=False)) for client in {
                "queue full": ["b1", "b2"], "client quota": ["c"],
                "duplicate id": ["b1"]}.get(ending, [])]
        target = QueryRequest(query=EDGE_QUERY, client="c", use_cache=False)
        if ending == "invalid text":
            target.query = "graph P { node"
        elif ending == "deadline shed":
            for _ in range(service.queue_wait.min_samples):
                service.queue_wait.observe(2.0)
            target.timeout = 0.1
        elif ending == "duplicate id":
            target.request_id = "block-b1"
        elif ending == "hand-off failure":
            service._executor = ThreadPoolExecutor(1)
            service._executor.shutdown()
        elif ending == "draining":
            service.admission.start_draining()
        elif ending == "cache hit":
            service.execute(EDGE_QUERY)
            target.use_cache = True
        elif ending == "watchdog abandon":
            target.request_id, target.timeout = "block-wd", 0.05
        service.breakers.record("c", failed=True)
        if ending != "breaker shed":
            now[0] += 6.0  # cooldown over: the next "c" request probes
        before, collector, resolved = service.stats(), SpanCollector(), []
        with tracer().session(collector):
            future = service.submit(target)
            future.add_done_callback(resolved.append)
            response = future.result(timeout=10)
        after = service.stats()
        assert response.outcome.status is status
        moved = {name: after[name] - before[name]
                 for name in ("submitted", "admitted", "rejected")}
        moved["shed"] = after["shed"]["total"] - before["shed"]["total"]
        assert moved == {"submitted": 1, "admitted": 0, "rejected": 0,
                         "shed": 0, counter: 1}
        roots = [span for span in collector.by_name("service.request")
                 if span.tags["client"] == "c"
                 and span.tags["request_id"] == target.request_id]
        assert len(roots) == 1 and roots[0].tags["status"] == status.value
        assert not service.breakers.breaker("c")._probe_in_flight
        gate.set()
        for blocker in blockers:
            blocker.result(timeout=10)
        service.shutdown()
        assert resolved == [future]
        assert service.admission.in_flight == 0 and not service._in_flight

    def test_cancelled_straggler_keeps_a_live_probe(self):
        with dense_service() as service:
            now = fake_clock_breakers(service)
            straggler = QueryRequest(query=HEAVY_QUERY, client="c",
                                     use_cache=False)
            future = service.submit(straggler)  # admitted while CLOSED
            service.breakers.record("c", failed=True)
            now[0] += 6.0
            assert service.breakers.allow("c", holder=object()) == (True,
                                                                      None)
            service.cancel(straggler.request_id)
            assert future.result(timeout=30).outcome.status is (
                Outcome.CANCELLED)
            # the straggler never held the probe: it must not free it
            assert service.breakers.allow("c") == (False, 5.0)

    def test_admitted_is_never_taken_back(self, monkeypatch):
        with dense_service() as service:
            counter = service.metrics._counters["admitted"]
            steps, inc = [], counter.inc
            monkeypatch.setattr(counter, "inc",
                                lambda n=1: (steps.append(n), inc(n)))
            first = service.submit(QueryRequest(
                query=HEAVY_QUERY, request_id="dup", use_cache=False))
            assert service.submit(QueryRequest(
                query=HEAVY_QUERY, request_id="dup", use_cache=False)
            ).result(timeout=5).rejected
            service.cancel("dup")
            first.result(timeout=30)
            service._executor.shutdown()  # the next hand-off fails
            handed = service.submit(QueryRequest(
                query=HEAVY_QUERY, use_cache=False)).result(timeout=5)
            assert steps == [1, 1]  # no -1 from either turn-back path
            assert handed.outcome.status is Outcome.CANCELLED


class TestLifecycle:
    def test_shutdown_drains_and_rejects_new_work(self):
        service = make_service()
        service.execute(EDGE_QUERY)
        service.shutdown()
        response = service.execute(EDGE_QUERY)
        assert response.rejected

    def test_shutdown_cancels_stragglers_past_the_deadline(self):
        service = dense_service()
        request = QueryRequest(query=HEAVY_QUERY, use_cache=False)
        future = service.submit(request)
        time.sleep(0.1)
        service.shutdown(timeout=0.2)
        response = future.result(timeout=30)
        assert response.outcome.status is Outcome.CANCELLED
