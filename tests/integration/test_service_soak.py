"""Soak test: many concurrent clients hammering one QueryService.

Acceptance criteria from the service issue:
- >= 8 concurrent clients x >= 50 total queries, worker pool smaller
  than the client count
- no query is silently dropped: admitted + rejected + shed == submitted
- every response carries a QueryOutcome
- rejected requests return REJECTED without executing (zero steps)
- a repeated identical query after warm-up is served from the result
  cache, verified by the hit counter and by being >= 5x faster than
  its cold run
"""

import threading
import time

from repro.core import Graph
from repro.datasets.random_graphs import erdos_renyi_graph
from repro.runtime import Outcome, QueryOutcome
from repro.service import QueryRequest, QueryService, ServiceConfig

CLIENTS = 8
QUERIES_PER_CLIENT = 7  # 8 x 7 = 56 >= 50 total

FAST_QUERY = ('graph P { node u1 <label="L001">; node u2 <label="L002">; '
              'edge e1 (u1, u2); }')
CACHED_QUERY = ('graph P { node a <label="L000">; node b <label="L001">; '
                'node c <label="L002">; edge e1 (a, b); edge e2 (b, c); }')
HEAVY_QUERY = ("graph P { "
               + " ".join(f'node u{i} <label="CORE">;' for i in range(7))
               + " ".join(f' edge e{i} (u{i}, u{i + 1});' for i in range(6))
               + " }")


def build_document() -> Graph:
    """A sparse labelled graph plus a dense single-label core.

    The core makes HEAVY_QUERY combinatorially expensive so that
    short timeouts and admission pressure are actually exercised.
    """
    graph = erdos_renyi_graph(250, 750, num_labels=6, seed=13, name="soak")
    core = [f"core{i}" for i in range(20)]
    for node_id in core:
        graph.add_node(node_id, label="CORE")
    for i, a in enumerate(core):
        for b in core[i + 1:]:
            graph.add_edge(a, b)
    return graph


class TestServiceSoak:
    def test_soak_concurrent_clients(self):
        config = ServiceConfig(
            workers=3,              # strictly fewer workers than clients
            queue_depth=64,         # generous: this phase measures flow,
            per_client=QUERIES_PER_CLIENT,  # not shedding (see burst test)
            default_timeout=5.0,
            default_max_results=None,  # let HEAVY_QUERY hit its deadline
        )
        service = QueryService(config)
        service.register("data", build_document())
        responses = []
        lock = threading.Lock()

        def client(index):
            mine = []
            for j in range(QUERIES_PER_CLIENT):
                if j % 3 == 2:
                    request = QueryRequest(
                        query=HEAVY_QUERY, client=f"client{index}",
                        timeout=0.2, use_cache=False)
                elif j % 3 == 1:
                    request = QueryRequest(
                        query=CACHED_QUERY, client=f"client{index}",
                        limit=200)
                else:
                    request = QueryRequest(
                        query=FAST_QUERY, client=f"client{index}",
                        limit=200)
                mine.append(service.submit(request))
            settled = [f.result(timeout=60) for f in mine]
            with lock:
                responses.extend(settled)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        service.shutdown()

        total = CLIENTS * QUERIES_PER_CLIENT
        assert total >= 50
        assert len(responses) == total, "a query was silently dropped"

        # accounting: every submission was admitted, rejected or shed
        # (a heavy query's 0.2s deadline is SHED once the queue-wait
        # estimate says it cannot be met)
        snap = service.stats()
        assert snap["submitted"] == total
        assert (snap["admitted"] + snap["rejected"]
                + snap["shed"]["total"]) == snap["submitted"]

        # every response carries a structured QueryOutcome
        for response in responses:
            assert isinstance(response.outcome, QueryOutcome)
            assert response.outcome.status in Outcome

        # rejected requests returned without executing
        for response in responses:
            if response.rejected:
                assert response.outcome.steps == 0
                assert response.results == []

        # heavy queries hit their 0.2s deadline rather than hanging
        statuses = {r.outcome.status for r in responses}
        assert Outcome.TIMED_OUT in statuses
        assert Outcome.COMPLETE in statuses

        # the repeated CACHED_QUERY was served from the result cache
        assert snap["result_cache"]["hits"] > 0
        cached = [r for r in responses if r.cache == "hit"]
        assert cached, "no response was marked as a cache hit"
        for response in cached:
            assert response.outcome.status is Outcome.COMPLETE

    def test_warm_cache_is_at_least_5x_faster_than_cold(self):
        service = QueryService(ServiceConfig(workers=2,
                                             default_timeout=30.0,
                                             default_max_results=2000))
        service.register("data", build_document())
        try:
            hits_before = service.metrics.value("result_cache_hits")

            start = time.perf_counter()
            cold = service.execute(CACHED_QUERY)
            cold_elapsed = time.perf_counter() - start
            assert cold.cache == "miss"
            assert cold.outcome.status is Outcome.COMPLETE

            start = time.perf_counter()
            warm = service.execute(CACHED_QUERY)
            warm_elapsed = time.perf_counter() - start
            assert warm.cache == "hit"
            assert service.metrics.value("result_cache_hits") == hits_before + 1
            assert warm.results == cold.results
            assert warm_elapsed < cold_elapsed / 5, (
                f"cache hit not >=5x faster: cold={cold_elapsed:.4f}s "
                f"warm={warm_elapsed:.4f}s")
        finally:
            service.shutdown()

    def test_burst_forces_real_rejections(self):
        """With a tiny queue, a burst of slow queries sheds load."""
        service = QueryService(ServiceConfig(
            workers=1, queue_depth=2, per_client=4,
            default_timeout=2.0, default_max_results=None))
        service.register("data", build_document())
        try:
            requests = [QueryRequest(query=HEAVY_QUERY, client=f"b{i}",
                                     timeout=0.5, use_cache=False)
                        for i in range(10)]
            futures = [service.submit(r) for r in requests]
            responses = [f.result(timeout=60) for f in futures]

            rejected = [r for r in responses if r.rejected]
            executed = [r for r in responses if not r.rejected]
            assert rejected, "burst did not trigger load shedding"
            assert executed, "burst starved every request"
            for response in rejected:
                assert response.outcome.status is Outcome.REJECTED
                assert response.outcome.steps == 0
                assert response.outcome.reason  # structured, not silent
            snap = service.stats()
            assert snap["admitted"] + snap["rejected"] == snap["submitted"]
        finally:
            service.shutdown()
