"""Resilience layer: breakers, shedding, the one deadline, retries,
probes, chaos proxy."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.datasets.random_graphs import erdos_renyi_graph
from repro.runtime import Outcome
from repro.service import (
    QueryRequest,
    QueryServer,
    QueryService,
    ServiceClient,
    ServiceConfig,
)
from repro.service import service as service_module
from repro.service.protocol import ProtocolError, decode
from repro.service.resilience import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    BreakerRegistry,
    CircuitBreaker,
    QueueWaitEstimator,
)

from tests.service.chaos import ChaosProxy

EDGE_QUERY = ('graph P { node u1 <label="L001">; node u2 <label="L002">; '
              'edge e1 (u1, u2); }')


def make_service(**overrides) -> QueryService:
    defaults = dict(workers=2, default_timeout=10.0)
    defaults.update(overrides)
    service = QueryService(ServiceConfig(**defaults))
    service.register("data", erdos_renyi_graph(
        150, 450, num_labels=5, seed=7, name="g"))
    return service


class FakeClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    def test_closed_allows_and_failures_open(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, cooldown=5.0, clock=clock)
        assert breaker.allow() == (True, None)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert breaker.opened_total == 1
        allowed, retry_after = breaker.allow()
        assert not allowed
        assert retry_after == pytest.approx(5.0)

    def test_cooldown_half_open_single_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
        breaker.record_failure()
        clock.now += 6.0
        assert breaker.allow() == (True, None)  # the probe
        assert breaker.state == STATE_HALF_OPEN
        allowed, retry_after = breaker.allow()  # a second concurrent ask
        assert not allowed and retry_after is not None
        breaker.record_success()
        assert breaker.state == STATE_CLOSED
        assert breaker.allow() == (True, None)

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=2, cooldown=5.0, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.now += 6.0
        assert breaker.allow()[0]
        breaker.record_failure()  # one failure suffices in HALF_OPEN
        assert breaker.state == STATE_OPEN
        assert breaker.opened_total == 2
        assert not breaker.allow()[0]

    def test_success_resets_the_failure_run(self):
        breaker = CircuitBreaker(threshold=2, cooldown=5.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED

    def test_released_probe_slot_is_reoffered_immediately(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
        breaker.record_failure()
        clock.now += 6.0
        probe = object()
        assert breaker.allow(probe) == (True, None)  # the probe
        assert not breaker.allow()[0]
        # the probe request was turned away downstream (shed/rejected):
        # giving the slot back re-opens it to the very next request
        breaker.release_probe(probe)
        assert breaker.allow() == (True, None)
        assert breaker.state == STATE_HALF_OPEN

    def test_only_the_probe_holder_releases_it(self):
        # a clock starting at 0.0: an opened_at of 0 is a real instant
        clock = FakeClock(0.0)
        registry = BreakerRegistry(threshold=1, cooldown=5.0, clock=clock)
        straggler, probe = object(), object()
        assert registry.allow("c", holder=straggler) == (True, None)
        registry.record("c", failed=True)  # OPEN at t=0
        clock.now += 6.0
        assert registry.allow("c", holder=probe) == (True, None)
        assert registry.allow("c") == (False, 5.0)
        # the request admitted while CLOSED ends neutrally: the live
        # probe stays held, no second concurrent probe is let through
        registry.release_probe("c", straggler)
        assert registry.allow("c") == (False, 5.0)
        registry.release_probe("c", probe)
        assert registry.allow("c") == (True, None)

    def test_lost_probe_times_out_and_is_reoffered(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
        breaker.record_failure()
        clock.now += 6.0
        assert breaker.allow()[0]  # probe taken, outcome never arrives
        allowed, retry_after = breaker.allow()
        assert not allowed and retry_after == pytest.approx(5.0)
        clock.now += 5.5  # a full cooldown later: the probe is presumed
        assert breaker.allow() == (True, None)  # lost and re-offered
        breaker.record_success()
        assert breaker.state == STATE_CLOSED

    def test_straggler_success_while_open_is_ignored(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=2, cooldown=5.0, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        # a slow request admitted before the circuit opened succeeds:
        # it must not short-circuit the cooldown
        breaker.record_success()
        assert breaker.state == STATE_OPEN
        assert not breaker.allow()[0]
        clock.now += 6.0  # ... only the HALF_OPEN probe may close it
        assert breaker.allow()[0]
        breaker.record_success()
        assert breaker.state == STATE_CLOSED

    def test_registry_tracks_clients_independently(self):
        clock = FakeClock()
        registry = BreakerRegistry(threshold=1, cooldown=5.0, clock=clock)
        registry.record("alice", failed=True)
        assert not registry.allow("alice")[0]
        assert registry.allow("bob") == (True, None)
        counts = registry.state_counts()
        assert counts[STATE_OPEN] == 1
        assert counts[STATE_CLOSED] == 1
        assert registry.snapshot()["alice"]["state"] == STATE_OPEN


class TestQueueWaitEstimator:
    def test_cold_estimator_returns_none(self):
        estimator = QueueWaitEstimator(window=32, min_samples=5)
        for _ in range(4):
            estimator.observe(1.0)
        assert estimator.p95() is None

    def test_p95_of_known_window(self):
        estimator = QueueWaitEstimator(window=100, min_samples=5)
        for wait in range(1, 101):  # 1..100
            estimator.observe(float(wait))
        assert estimator.p95() == pytest.approx(96.0)

    def test_window_is_bounded(self):
        estimator = QueueWaitEstimator(window=4, min_samples=1)
        for wait in (10.0, 10.0, 1.0, 1.0, 1.0, 1.0):
            estimator.observe(wait)
        assert len(estimator) == 4
        assert estimator.p95() == pytest.approx(1.0)


def warm_estimator(service, wait: float) -> None:
    """Feed the queue-wait estimator the samples it needs to shed."""
    for _ in range(service.queue_wait.min_samples):
        service.queue_wait.observe(wait)


class TestDeadlineShedding:
    def test_sheds_when_deadline_below_p95_wait(self):
        with make_service() as service:
            warm_estimator(service, 2.0)
            request = QueryRequest(query=EDGE_QUERY, timeout=0.1,
                                   client="impatient")
            response = service.submit(request).result(timeout=5)
            assert response.outcome.status is Outcome.SHED
            assert response.shed
            assert "p95 queue wait" in response.outcome.reason
            assert response.retry_after is not None
            # nothing was admitted, nothing leaked
            assert service.admission.in_flight == 0
            stats = service.stats()
            assert stats["shed"]["total"] == 1
            assert stats["shed"]["deadline"] == 1
            assert stats["submitted"] == (stats["admitted"]
                                          + stats["rejected"] + 1)

    def test_generous_deadline_still_runs(self):
        with make_service() as service:
            warm_estimator(service, 0.001)
            response = service.submit(
                QueryRequest(query=EDGE_QUERY, timeout=5.0)).result(timeout=10)
            assert response.outcome.status is Outcome.COMPLETE

    def test_cold_estimator_never_sheds(self):
        with make_service() as service:
            # one sample short of warm: even a hopeless deadline runs
            for _ in range(service.queue_wait.min_samples - 1):
                service.queue_wait.observe(10.0)
            response = service.submit(
                QueryRequest(query=EDGE_QUERY, timeout=0.001)
            ).result(timeout=10)
            assert response.outcome.status is not Outcome.SHED


class TestBreakerShedding:
    def test_open_breaker_sheds_only_that_client(self, monkeypatch):
        monkeypatch.setattr(service_module, "BREAKER_THRESHOLD", 2)
        with make_service() as service:
            service.breakers.record("hot", failed=True)
            service.breakers.record("hot", failed=True)
            shed = service.submit(QueryRequest(
                query=EDGE_QUERY, client="hot")).result(timeout=5)
            assert shed.outcome.status is Outcome.SHED
            assert "circuit breaker" in shed.outcome.reason
            assert shed.retry_after is not None
            ok = service.submit(QueryRequest(
                query=EDGE_QUERY, client="cool")).result(timeout=10)
            assert ok.outcome.status is Outcome.COMPLETE
            stats = service.stats()
            assert stats["shed"]["breaker"] == 1
            assert stats["resilience"]["breaker_states"][STATE_OPEN] == 1

    def test_timeouts_open_the_breaker_and_success_closes_it(self,
                                                             monkeypatch):
        monkeypatch.setattr(service_module, "BREAKER_THRESHOLD", 2)
        monkeypatch.setattr(service_module, "BREAKER_COOLDOWN", 0.2)
        with make_service() as service:
            request = QueryRequest(query=EDGE_QUERY, client="slow")
            # the failure source must pass static analysis (a syntax-bad
            # query is now rejected before the breaker sees it), so fail
            # at execution instead: the document does not exist
            error = service.submit(QueryRequest(
                query=EDGE_QUERY, document="nope",
                client="slow")).result(timeout=5)
            assert error.error is not None
            error = service.submit(QueryRequest(
                query=EDGE_QUERY, document="nope",
                client="slow")).result(timeout=5)
            assert error.error is not None
            breaker = service.breakers.breaker("slow")
            assert breaker.state == STATE_OPEN
            shed = service.submit(request).result(timeout=5)
            assert shed.outcome.status is Outcome.SHED
            time.sleep(0.25)  # cooldown elapses: half-open probe runs
            probe = service.submit(request).result(timeout=10)
            assert probe.outcome.status is Outcome.COMPLETE
            assert breaker.state == STATE_CLOSED

    def test_turned_away_probe_releases_the_half_open_slot(self,
                                                           monkeypatch):
        monkeypatch.setattr(service_module, "BREAKER_THRESHOLD", 1)
        monkeypatch.setattr(service_module, "BREAKER_COOLDOWN", 0.1)
        with make_service() as service:
            error = service.submit(QueryRequest(
                query=EDGE_QUERY, document="nope",
                client="flaky")).result(timeout=5)
            assert error.error is not None
            breaker = service.breakers.breaker("flaky")
            assert breaker.state == STATE_OPEN
            time.sleep(0.15)  # cooldown elapses: HALF_OPEN next
            warm_estimator(service, 2.0)
            # the HALF_OPEN probe itself is deadline-shed downstream:
            # the slot must come back instead of wedging the breaker
            shed = service.submit(QueryRequest(
                query=EDGE_QUERY, client="flaky", timeout=0.01,
            )).result(timeout=5)
            assert shed.outcome.status is Outcome.SHED
            assert "queue wait" in shed.outcome.reason
            probe = service.submit(QueryRequest(
                query=EDGE_QUERY, client="flaky", timeout=10.0,
            )).result(timeout=10)
            assert probe.outcome.status is Outcome.COMPLETE
            assert breaker.state == STATE_CLOSED


class TestOneDeadline:
    def test_worker_held_past_the_deadline_ends_timed_out_once(self):
        """A worker held past the request's deadline before the run (the
        hook stands in for any stage that overruns) ends the request
        TIMED_OUT at the run's first check, counted once."""
        with make_service(workers=1, default_timeout=0.1) as service:
            service.execute_hook = lambda request: time.sleep(0.3)
            response = service.submit(QueryRequest(
                query=EDGE_QUERY, use_cache=False)).result(timeout=10)
            assert response.outcome.status is Outcome.TIMED_OUT
            assert "deadline of 0.1s exceeded" in response.outcome.reason
            assert response.outcome.steps == 0
            assert service.stats()["outcomes"]["TIMED_OUT"] == 1
            assert service.admission.in_flight == 0


class TestSettings:
    @pytest.mark.parametrize("setting", [
        {"threshold": 0}, {"threshold": -1},
    ])
    def test_no_value_switches_the_breaker_or_watchdog_off(self, setting):
        with pytest.raises(ValueError):
            BreakerRegistry(**setting)

    def test_every_service_runs_breaker_and_shedder(self):
        with make_service() as service:
            response = service.submit(
                QueryRequest(query=EDGE_QUERY)).result(timeout=10)
            assert response.outcome.status is Outcome.COMPLETE
            assert service.queue_wait.min_samples == 10
            assert service.breakers.threshold == 8
            assert service.breakers.cooldown == 5.0
            assert service.stats()["config"] == {
                "workers": 2, "queue_depth": 16, "per_client": 8,
                "default_timeout": 10.0, "breaker_threshold": 8}


class TestHealthReady:
    def test_health_and_ready_lifecycle(self):
        service = make_service()
        health = service.health()
        assert health["status"] == "ok"
        assert health["documents"] == 1
        assert set(health) == {"status", "draining", "in_flight",
                               "documents", "breakers", "shed", "recovery"}
        assert service.ready() == (True, "ok")
        service.drain(timeout=5)
        ready, reason = service.ready()
        assert not ready and reason == "draining"
        assert service.health()["status"] == "draining"
        service.shutdown()
        assert service.ready()[0] is False

    def test_no_documents_not_ready(self):
        service = QueryService(ServiceConfig(workers=1))
        try:
            ready, reason = service.ready()
            assert not ready and "document" in reason
        finally:
            service.shutdown()


# ---------------------------------------------------------------------------
# wire level


@pytest.fixture()
def server():
    service = make_service(queue_depth=16, per_client=16)
    srv = QueryServer(service, ("127.0.0.1", 0))
    thread = threading.Thread(target=srv.serve_until_shutdown, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown_gracefully(drain_timeout=2.0)
        thread.join(timeout=10)


def connect(server, name="test", **kwargs):
    host, port = server.address
    return ServiceClient(host, port, timeout=30.0, client_name=name,
                         **kwargs)


class TestWireResilience:
    def test_health_and_ready_ops(self, server):
        with connect(server) as client:
            health = client.health()
            assert health["status"] == "ok"
            assert "breakers" in health and "shed" in health
            assert client.ready() == (True, "ok")

    def test_declared_retry_after_a_write_returns_the_new_rows(self,
                                                                server):
        # a retry runs against the current data: the answer to a query
        # is a function of the query and the document, never of an
        # earlier attempt's reply
        with connect(server, name="dup") as client:
            first = client.query(EDGE_QUERY)
            assert first.ok and first.results
            server.service.register("data", erdos_renyi_graph(
                40, 60, num_labels=5, seed=3, name="g"))
            fresh = client.query(EDGE_QUERY)
            assert fresh.versions != first.versions
            assert fresh.results != first.results
            retry = client.call({
                "op": "query", "query": EDGE_QUERY, "document": "data",
                "client": "dup", "id": first.request_id, "attempt": 2,
            })
            assert retry["blocks"] == fresh.raw["blocks"]
            assert retry["versions"] == fresh.raw["versions"]
            assert client.stats()["client_retries"] == {"dup": 1}

    def test_no_cache_retry_of_a_completed_query_runs_again(self, server):
        with connect(server, name="fresh") as client:
            first = client.query(EDGE_QUERY)
            assert first.outcome.status is Outcome.COMPLETE
            executed = client.stats()["executed"]
            retry = client.call({
                "op": "query", "query": EDGE_QUERY, "document": "data",
                "client": "fresh", "id": first.request_id, "attempt": 2,
                "no_cache": True,
            })
            assert retry["cache"] == "bypass"
            assert retry["blocks"] == first.raw["blocks"]
            assert client.stats()["executed"] == executed + 1

    def test_http_and_wire_probes_agree_while_draining(self):
        # the window between shutdown_gracefully setting the flag and
        # the service's own drain: every probe must already say so
        service = make_service()
        srv = QueryServer(service, ("127.0.0.1", 0))
        exporter = srv.metrics_exporter().start()
        host, port = exporter.address
        try:
            srv._draining.set()
            assert service.health()["status"] == "ok"  # not draining yet
            health = srv.handle_message(b'{"op": "health", "id": "h"}')
            assert health["health"]["status"] == "draining"
            assert health["health"]["draining"] is True
            ready = srv.handle_message(b'{"op": "ready", "id": "r"}')
            assert (ready["ready"], ready["reason"]) == (False, "draining")
            url = f"http://{host}:{port}"
            with urllib.request.urlopen(url + "/health", timeout=5) as r:
                http_health = json.loads(r.read())
            assert http_health["status"] == "draining"
            assert http_health["draining"] is True
            with pytest.raises(urllib.error.HTTPError) as refused:
                urllib.request.urlopen(url + "/ready", timeout=5)
            assert refused.value.code == 503
            assert json.loads(refused.value.read()) == {
                "ready": False, "reason": "draining"}
        finally:
            exporter.close()
            srv.server_close()
            service.shutdown()

    def test_undeclared_id_reuse_is_not_replayed(self, server):
        # two client instances restart their id counters: same wire id,
        # different queries — the second must execute, not replay
        with connect(server, name="anon") as one:
            first = one.query(EDGE_QUERY, limit=5)
        with connect(server, name="anon") as two:
            second = two.query(EDGE_QUERY, limit=1)
        assert first.request_id == second.request_id
        assert len(second.results) <= 1

    def test_empty_line_gets_a_structured_error(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=5) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"\n")
            reply = json.loads(reader.readline())
            assert reply["ok"] is False
            assert "empty line" in reply["error"]
            sock.sendall(b"   \t \n")
            reply = json.loads(reader.readline())
            assert reply["ok"] is False
            # the session survives blank-line noise
            sock.sendall(b'{"op": "ping", "id": "p1"}\n')
            reply = json.loads(reader.readline())
            assert reply["ok"] is True and reply["op"] == "ping"

    def test_decode_rejects_empty_and_whitespace_lines(self):
        for line in (b"", b"\n", b"   \n", b"\t\r\n"):
            with pytest.raises(ProtocolError, match="empty line"):
                decode(line)

    def test_graceful_shutdown_joins_handler_threads(self):
        service = make_service()
        srv = QueryServer(service, ("127.0.0.1", 0))
        thread = threading.Thread(target=srv.serve_until_shutdown,
                                  daemon=True)
        thread.start()
        try:
            client = connect(srv, name="idle")
            client.ping()  # the handler thread is now alive and idle
            with srv._handlers_lock:
                handler_threads = list(srv._handlers.values())
            assert handler_threads and all(t.is_alive()
                                           for t in handler_threads)
            assert srv.shutdown_gracefully(drain_timeout=2.0)
            # the drain join closed the idle connection and reaped the
            # handler before the final log dump
            for t in handler_threads:
                t.join(timeout=2.0)
            assert not any(t.is_alive() for t in handler_threads)
            with srv._handlers_lock:
                assert not srv._handlers
            with pytest.raises((ConnectionError, OSError)):
                client.ping()
            client.close()
        finally:
            thread.join(timeout=10)


class TestRetryingClient:
    def _fake_server(self, drop_first: int):
        """A one-thread ndjson server that drops the first N
        connections at accept, then answers pings."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        state = {"accepted": 0}

        def serve():
            while True:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                state["accepted"] += 1
                if state["accepted"] <= drop_first:
                    conn.close()
                    continue
                with conn, conn.makefile("rb") as reader:
                    while True:
                        line = reader.readline()
                        if not line:
                            break
                        message = json.loads(line)
                        reply = {"id": message.get("id"), "ok": True,
                                 "op": "ping", "version": 1,
                                 "draining": False}
                        conn.sendall(json.dumps(reply).encode() + b"\n")

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return listener, state

    @pytest.mark.parametrize("retries", [0, 1])
    def test_a_corrupted_outcome_is_a_desync(self, monkeypatch, retries):
        """A flipped byte inside a reply's outcome (``"COMPMETE"``) is a
        ProtocolError the client may retry, not a ValueError that
        escapes ``query``."""
        good = {"ok": True, "outcome": {"status": "COMPLETE"}, "blocks": []}
        replies = [{**good, "outcome": {"status": "COMPMETE"}}, good]
        client = ServiceClient("127.0.0.1", 1, retries=retries,
                               backoff_base=0.001, retry_seed=1)
        monkeypatch.setattr(client, "_call_once",
                            lambda message, deadline: replies.pop(0))
        if retries == 0:
            with pytest.raises(ProtocolError, match="COMPMETE"):
                client.query(EDGE_QUERY)
            return
        reply = client.query(EDGE_QUERY)
        assert reply.outcome.status is Outcome.COMPLETE
        assert client.retry_count == 1

    def test_retries_reconnect_after_connection_loss(self):
        listener, state = self._fake_server(drop_first=1)
        host, port = listener.getsockname()
        client = ServiceClient(host, port, timeout=5.0, retries=2,
                               backoff_base=0.01, retry_seed=1)
        try:
            reply = client.ping()
            assert reply["ok"] is True
            assert client.retry_count == 1
            assert client.reconnects == 1
        finally:
            client.close()
            listener.close()

    def test_no_retries_by_default(self):
        listener, state = self._fake_server(drop_first=10)
        host, port = listener.getsockname()
        client = ServiceClient(host, port, timeout=5.0)
        try:
            with pytest.raises((ConnectionError, OSError)):
                client.ping()
            assert client.retry_count == 0
        finally:
            client.close()
            listener.close()

    def test_retries_exhaust_within_the_overall_budget(self):
        listener, state = self._fake_server(drop_first=100)
        host, port = listener.getsockname()
        client = ServiceClient(host, port, timeout=2.0, retries=3,
                               backoff_base=0.01, retry_seed=1)
        started = time.monotonic()
        try:
            with pytest.raises((ConnectionError, OSError)):
                client.ping()
        finally:
            client.close()
            listener.close()
        assert time.monotonic() - started < 5.0
        assert client.retry_count <= 3

    def test_connect_timeout_is_honored_everywhere(self, monkeypatch):
        import repro.service.client as client_module

        seen = []
        real_create = socket.create_connection

        def spy(address, timeout=None, **kwargs):
            seen.append(timeout)
            return real_create(address, timeout=timeout, **kwargs)

        monkeypatch.setattr(client_module.socket,
                            "create_connection", spy)
        listener, state = self._fake_server(drop_first=1)
        host, port = listener.getsockname()
        client = ServiceClient(host, port, timeout=30.0,
                               connect_timeout=2.5, retries=2,
                               backoff_base=0.01, retry_seed=1)
        try:
            client.ping()
        finally:
            client.close()
            listener.close()
        # the initial connect AND the retry reconnect both used it
        assert len(seen) >= 2
        assert all(timeout == 2.5 for timeout in seen)

    def test_connect_timeout_defaults_to_timeout(self):
        client = ServiceClient(timeout=7.0)
        assert client.connect_timeout == 7.0
        tight = ServiceClient(timeout=30.0, connect_timeout=0.5)
        assert tight.connect_timeout == 0.5


class TestHTTPProbes:
    def test_health_and_ready_routes(self):
        import urllib.error
        import urllib.request

        from repro.obs.httpexport import MetricsHTTPExporter

        state = {"ready": True}
        exporter = MetricsHTTPExporter(
            lambda: "# metrics\n",
            health_fn=lambda: {"status": "ok", "draining": False},
            ready_fn=lambda: ((True, "ok") if state["ready"]
                              else (False, "draining")),
        ).start()
        host, port = exporter.address
        base = f"http://{host}:{port}"
        try:
            with urllib.request.urlopen(f"{base}/health", timeout=5) as resp:
                assert resp.status == 200
                assert json.loads(resp.read())["status"] == "ok"
            with urllib.request.urlopen(f"{base}/ready", timeout=5) as resp:
                assert resp.status == 200
                assert json.loads(resp.read())["ready"] is True
            state["ready"] = False
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{base}/ready", timeout=5)
            assert excinfo.value.code == 503
            assert json.loads(excinfo.value.read())["reason"] == "draining"
        finally:
            exporter.close()

    def test_routes_absent_without_callbacks(self):
        import urllib.error
        import urllib.request

        from repro.obs.httpexport import MetricsHTTPExporter

        exporter = MetricsHTTPExporter(lambda: "# metrics\n").start()
        host, port = exporter.address
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://{host}:{port}/ready", timeout=5)
            assert excinfo.value.code == 404
        finally:
            exporter.close()


class TestChaosProxy:
    def _echo_server(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)

        def serve():
            while True:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                with conn:
                    while True:
                        try:
                            data = conn.recv(4096)
                        except OSError:
                            break
                        if not data:
                            break
                        try:
                            conn.sendall(data)
                        except OSError:
                            break

        threading.Thread(target=serve, daemon=True).start()
        return listener

    def test_benign_faults_preserve_the_byte_stream(self):
        listener = self._echo_server()
        proxy = ChaosProxy(listener.getsockname(), seed=1, rates={
            "reset": 0.0, "corrupt": 0.0, "duplicate": 0.0,
            "delay": 0.3, "split": 0.5,
        }).start()
        try:
            with socket.create_connection(proxy.address, timeout=5) as sock:
                sock.settimeout(5)
                payload = b"x" * 1000 + b"\n"
                for _ in range(10):
                    sock.sendall(payload)
                    got = b""
                    while len(got) < len(payload):
                        got += sock.recv(4096)
                    assert got == payload
            assert proxy.stats["split"] + proxy.stats["delay"] > 0
        finally:
            proxy.close()
            listener.close()

    def test_reset_rate_one_drops_the_connection(self):
        listener = self._echo_server()
        proxy = ChaosProxy(listener.getsockname(), seed=1, rates={
            "reset": 1.0, "corrupt": 0.0, "duplicate": 0.0,
            "delay": 0.0, "split": 0.0,
        }).start()
        try:
            with socket.create_connection(proxy.address, timeout=5) as sock:
                sock.settimeout(5)
                sock.sendall(b"hello\n")
                assert sock.recv(4096) == b""  # peer gone
            assert proxy.stats["reset"] >= 1
        finally:
            proxy.close()
            listener.close()

    def test_fault_schedule_is_deterministic_per_seed(self):
        import random as random_module

        rng_a = random_module.Random("7:1:c2s")
        rng_b = random_module.Random("7:1:c2s")
        assert [rng_a.random() for _ in range(32)] == \
               [rng_b.random() for _ in range(32)]
