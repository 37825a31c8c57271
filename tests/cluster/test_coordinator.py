"""ClusterCoordinator semantics against scripted in-process shards.

The coordinator's client factory is the seam: these tests substitute
scripted fakes for TCP clients, so merge order, PARTIAL accounting,
failover, breakers and version-fresh answers are each exercised
deterministically — no sockets, no subprocesses, no sleeps beyond the
scripted shard delays.
"""

import socket
import threading
import time

import pytest

from repro.cluster import ClusterCoordinator, ShardMap
from repro.cluster import coordinator as coordinator_module
from repro.runtime import Outcome, QueryOutcome
from repro.service.client import ClientReply
from repro.service.protocol import AnswerRows

QUERY = 'graph P { node a <label="C">; }'


class ScriptedShard:
    """One fake shard endpoint: scripted rows, status, delay or error."""

    def __init__(self, rows=2, status=Outcome.COMPLETE, delay=0.0,
                 error=None, reason="", version=None):
        self.rows = rows
        self.status = status
        self.delay = delay
        self.error = error
        self.reason = reason
        self.version = version
        self.connections = 0
        self.query_connections = 0
        self.cancelled = []
        self.documents = []
        self._lock = threading.Lock()


class ScriptedClient:
    """Honours its *timeout* as ``ServiceClient`` does: a scripted delay
    past it sleeps the timeout out, then raises ``socket.timeout``."""

    def __init__(self, shard: ScriptedShard, timeout=None):
        self.shard = shard
        self.timeout = timeout
        with shard._lock:
            shard.connections += 1
            self.connection = shard.connections

    def close(self):
        return None

    def cancel(self, target, reason=""):
        with self.shard._lock:
            self.shard.cancelled.append(target)
        return True

    def query(self, query_text, document="data", **kwargs):
        shard = self.shard
        with shard._lock:
            shard.query_connections += 1
            query_connection = shard.query_connections
            shard.documents.append(document)
        delay = shard.delay
        if callable(delay):
            delay = delay(query_connection)
        if self.timeout is not None and delay > self.timeout:
            time.sleep(self.timeout)
            raise socket.timeout("timed out")
        if delay:
            time.sleep(delay)
        if shard.error is not None:
            raise shard.error
        blocks = [{"graph": f"g{i}", "nodes": [], "edges": [], "rows": [[]]}
                  for i in range(shard.rows)]
        limit = kwargs.get("limit")
        if limit is not None:
            blocks = blocks[:limit]
        rows = AnswerRows.from_wire(blocks)
        return ClientReply(
            ok=True, request_id="r", results=rows,
            outcome=QueryOutcome(status=shard.status,
                                 reason=shard.reason,
                                 steps=10, results=len(rows)),
            versions=({document: shard.version}
                      if shard.version is not None else {}))


def assert_failures_named(reply):
    """Every shard that did not merge says why."""
    for shard, entry in reply.outcome.detail["shards"].items():
        if not entry["merged"]:
            assert isinstance(entry.get("error"), str) and entry["error"], \
                f"{shard} failed without an error: {entry}"


def build(shards, replication=1, **kwargs):
    """A coordinator over scripted shards keyed ``shard0..shardN``."""
    table = {f"shard{i}": shard for i, shard in enumerate(shards)}
    endpoints = {sid: ("scripted", i) for i, sid in enumerate(table)}

    def factory(host, port, timeout=None, client_name=""):
        return ScriptedClient(table[f"shard{port}"], timeout)

    coordinator = ClusterCoordinator(
        ShardMap(list(table), replication_factor=replication), endpoints,
        client_factory=factory, timeout=kwargs.pop("timeout", 5.0),
        **kwargs)
    return coordinator


@pytest.mark.parametrize("text, code", [
    ("graph P { node v1; } where Q.x > 1", "GQL001"),
    # passes the analyzer, refused by the compiler
    ("graph P { node a <label=x>; }", "GQL012"),
])
def test_invalid_query_is_rejected_before_fan_out(text, code):
    shards = [ScriptedShard(rows=2), ScriptedShard(rows=3)]
    coordinator = build(shards)
    reply = coordinator.query(text)
    assert reply.outcome.status is Outcome.REJECTED
    assert reply.outcome.reason == "invalid_query"
    diags = reply.outcome.detail["diagnostics"]
    assert diags and diags[0]["code"] == code
    # no shard ever saw the query
    assert all(shard.query_connections == 0 for shard in shards)
    assert coordinator.stats()["counters"]["invalid_queries"] == 1


def test_five_fanouts_prepare_the_text_once(monkeypatch):
    """Every fan-out reaches the shards, but the text is parsed and
    analyzed once: the plan cache holds verdicts, never answers."""
    import repro.service.cache as cache

    prepared = []
    real_prepare = cache.prepare_pattern_text

    def counting(text):
        prepared.append(text)
        return real_prepare(text)

    monkeypatch.setattr(cache, "prepare_pattern_text", counting)
    shard = ScriptedShard(rows=1)
    coordinator = build([shard])
    for _ in range(5):
        assert coordinator.query(QUERY).merged == 1
    assert shard.query_connections == 5
    assert prepared == [QUERY]
    stats = coordinator.stats()["plan_cache"]
    assert (stats["hits"], stats["misses"]) == (4, 1)


def test_all_shards_merge_to_complete_with_full_accounting():
    coordinator = build([ScriptedShard(rows=2), ScriptedShard(rows=3)])
    reply = coordinator.query(QUERY)
    assert reply.outcome.status is Outcome.COMPLETE
    assert reply.submitted == 2 and reply.merged == 2 and reply.failed == 0
    assert len(reply.results) == 5
    assert {row["shard"] for row in reply.results} == {"shard0", "shard1"}
    detail = reply.outcome.detail
    assert detail["submitted"] == detail["merged"] + detail["failed"]
    assert detail["shards"]["shard1"]["rows"] == 3
    assert reply.outcome.steps == 20  # per-shard accounting is summed


def test_one_dead_shard_degrades_to_partial_not_failure():
    dead = ScriptedShard(error=ConnectionRefusedError("refused"))
    coordinator = build([ScriptedShard(rows=2), dead,
                         ScriptedShard(rows=1)])
    reply = coordinator.query(QUERY)
    assert reply.outcome.status is Outcome.PARTIAL
    assert reply.error is None  # rows were merged: partial, not failed
    assert reply.submitted == 3 == reply.merged + reply.failed
    assert reply.merged == 2 and reply.failed == 1
    assert len(reply.results) == 3
    entry = reply.outcome.detail["shards"]["shard1"]
    assert entry["merged"] is False and "refused" in entry["error"]
    assert "shard1" in reply.outcome.reason


def test_all_shards_down_is_partial_with_an_error():
    coordinator = build([ScriptedShard(error=ConnectionError("down")),
                         ScriptedShard(error=ConnectionError("down"))])
    reply = coordinator.query(QUERY)
    assert reply.outcome.status is Outcome.PARTIAL
    assert reply.merged == 0 and reply.failed == 2
    assert reply.results == []
    assert reply.error is not None


def test_shed_and_timed_out_shards_count_as_failed():
    coordinator = build([
        ScriptedShard(rows=2),
        ScriptedShard(rows=0, status=Outcome.SHED, reason="breaker open"),
        ScriptedShard(rows=0, status=Outcome.TIMED_OUT,
                      reason="deadline expired"),
    ])
    reply = coordinator.query(QUERY)
    assert reply.outcome.status is Outcome.PARTIAL
    assert reply.merged == 1 and reply.failed == 2
    shards = reply.outcome.detail["shards"]
    assert shards["shard1"]["error"] == "breaker open"
    assert shards["shard2"]["status"] == "TIMED_OUT"


def test_global_limit_truncates_across_shards():
    coordinator = build([ScriptedShard(rows=4), ScriptedShard(rows=4)])
    reply = coordinator.query(QUERY, limit=5)
    assert reply.outcome.status is Outcome.TRUNCATED
    assert len(reply.results) == 5
    assert reply.merged == 2  # truncation is not failure
    # deterministic merge order: shard0's rows first
    assert [row["shard"] for row in reply.results] == \
        ["shard0"] * 4 + ["shard1"]


def test_a_slow_primary_inside_its_deadline_is_merged_over_one_connection():
    # one exchange per replica: a slow answer is waited for, never raced
    slow = ScriptedShard(rows=1, delay=0.3)
    coordinator = build([ScriptedShard(rows=1), slow], timeout=5.0)
    reply = coordinator.query(QUERY)
    assert reply.outcome.status is Outcome.COMPLETE
    assert reply.merged == 2
    assert slow.query_connections == 1 and slow.connections == 1
    assert slow.cancelled == []
    entry = reply.outcome.detail["shards"]["shard1"]
    assert entry["merged"] is True and entry["replica_used"] == "shard1"
    assert not any("hedge" in key for key in entry)
    assert not any("hedge" in key
                   for key in coordinator.stats()["counters"])


def test_breaker_opens_after_repeated_failures_and_skips_the_shard(
        monkeypatch):
    monkeypatch.setattr(coordinator_module, "BREAKER_THRESHOLD", 2)
    monkeypatch.setattr(coordinator_module, "BREAKER_COOLDOWN", 30.0)
    dead = ScriptedShard(error=ConnectionError("down"))
    coordinator = build([ScriptedShard(rows=1), dead])
    coordinator.query(QUERY)
    coordinator.query(QUERY)  # two failures: the breaker opens
    assert dead.connections == 2
    reply = coordinator.query(QUERY)
    assert dead.connections == 2  # skipped: no third connection
    assert reply.outcome.status is Outcome.PARTIAL
    entry = reply.outcome.detail["shards"]["shard1"]
    assert "breaker open" in entry["error"]
    assert coordinator.stats()["counters"]["breaker_skips"] == 1


def test_partial_replies_are_never_cached():
    """The recovered shard merges: nothing replays the PARTIAL."""
    flaky = ScriptedShard(error=ConnectionError("down"))
    coordinator = build([ScriptedShard(rows=1), flaky])
    first = coordinator.query(QUERY)
    assert first.partial
    flaky.error = None  # the shard recovers
    second = coordinator.query(QUERY)
    assert second.outcome.status is Outcome.COMPLETE
    assert second.merged == 2


def test_a_shard_write_is_seen_by_the_next_identical_query():
    # a write on the shard changes its rows and its reported version;
    # the coordinator keeps no answers, so the repeat sees the new data
    shard = ScriptedShard(rows=2, version=1)
    coordinator = build([shard])
    before = coordinator.query(QUERY)
    assert len(before.results) == 2
    shard.rows, shard.version = 5, 2
    after = coordinator.query(QUERY)
    assert len(after.results) == 5
    assert after.outcome.detail["shards"]["shard0"]["version"] == 2
    assert shard.query_connections == 2


def test_failover_serves_a_dead_slice_from_its_replica():
    # R=2 over two shards: each slice's preference list is both shards,
    # so killing one process must not lose any slice
    dead = ScriptedShard(error=ConnectionRefusedError("refused"))
    live = ScriptedShard(rows=3)
    table = {"shard0": dead, "shard1": live}
    coordinator = build([dead, live], replication=2)
    victim_slice = next(s for s in table
                        if coordinator.shard_map.preference_list(s)[0]
                        == "shard0")
    reply = coordinator.query(QUERY)
    assert reply.outcome.status is Outcome.COMPLETE  # zero PARTIAL
    assert reply.failed == 0
    entry = reply.outcome.detail["shards"][victim_slice]
    assert entry["merged"] is True
    assert entry["replica_used"] == "shard1"
    assert entry["failovers"] == 1
    assert coordinator.stats()["counters"]["failovers"] == 1
    # the replica was asked for the *slice* document, not its own
    assert f"data@{victim_slice}" in live.documents


def test_exhausted_preference_list_degrades_to_partial():
    coordinator = build(
        [ScriptedShard(error=ConnectionError("down0")),
         ScriptedShard(error=ConnectionError("down1")),
         ScriptedShard(rows=2)],
        replication=2)
    # find a slice whose two replicas are the two dead processes
    doomed = [s for s in ("shard0", "shard1", "shard2")
              if set(coordinator.shard_map.preference_list(s)) ==
              {"shard0", "shard1"}]
    reply = coordinator.query(QUERY)
    for shard in doomed:
        entry = reply.outcome.detail["shards"][shard]
        assert entry["merged"] is False
        # both replicas appear in the error trail
        assert "down0" in entry["error"] and "down1" in entry["error"]
    if doomed:
        assert reply.outcome.status is Outcome.PARTIAL


def test_shed_replica_fails_over_but_app_error_is_definitive():
    shedding = ScriptedShard(rows=0, status=Outcome.SHED,
                             reason="queue full")
    healthy = ScriptedShard(rows=2)
    coordinator = build([shedding, healthy], replication=2)
    slice0 = next(s for s in ("shard0", "shard1")
                  if coordinator.shard_map.preference_list(s)[0]
                  == "shard0")
    reply = coordinator.query(QUERY)
    entry = reply.outcome.detail["shards"][slice0]
    # SHED is transient: the replica absorbed it
    assert entry["merged"] is True and entry["replica_used"] == "shard1"
    # an application error is deterministic: no failover, it surfaces
    class AppErrorClient(ScriptedClient):
        def query(self, query_text, **kwargs):
            reply = super().query(query_text, **kwargs)
            reply.error = "syntax error at line 1"
            return reply
    broken = build([ScriptedShard(rows=1), ScriptedShard(rows=1)],
                   replication=2)
    broken.client_factory = lambda host, port, timeout=None, \
        client_name="": AppErrorClient(ScriptedShard(rows=1))
    reply = broken.query(QUERY)
    for entry in reply.outcome.detail["shards"].values():
        assert entry["merged"] is False
        assert "syntax error" in entry["error"]
        assert "failovers" not in entry  # definitive on the primary


def test_replica_version_divergence_is_counted_not_merged_over(
        monkeypatch):
    # one forced failure below: the primary's breaker stays closed
    monkeypatch.setattr(coordinator_module, "BREAKER_THRESHOLD", 2)
    primary = ScriptedShard(rows=2, version=5)
    secondary = ScriptedShard(rows=2, version=7)  # stale/ahead replica
    coordinator = build([primary, secondary], replication=2)
    slice0 = next(s for s in ("shard0", "shard1")
                  if coordinator.shard_map.preference_list(s)[0]
                  == "shard0")
    first = coordinator.query(QUERY)
    assert first.failed == 0
    assert coordinator.stats()["counters"].get(
        "version_divergence", 0) == 0
    primary.error = ConnectionError("down")  # force the failover read
    second = coordinator.query(QUERY)
    assert second.failed == 0
    entry = second.outcome.detail["shards"][slice0]
    assert entry["replica_used"] == "shard1" and entry["version"] == 7
    assert coordinator.stats()["counters"]["version_divergence"] >= 1
    # the rows still merged: divergence is observed, never a failure
    assert second.outcome.status is Outcome.COMPLETE


def test_targeted_fanout_touches_only_the_owning_shard():
    shards = [ScriptedShard(rows=1), ScriptedShard(rows=1)]
    coordinator = build(shards)
    reply = coordinator.query(QUERY, shard_ids=["shard1"],
                              use_cache=False)
    assert reply.submitted == 1
    assert shards[0].connections == 0
    assert shards[1].connections == 1
    assert [row["shard"] for row in reply.results] == ["shard1"]


def test_shard_slower_than_the_deadline_is_partial_and_says_why():
    slow = ScriptedShard(rows=1, delay=3.0)
    coordinator = build([ScriptedShard(rows=2), slow], timeout=0.5)
    started = time.monotonic()
    reply = coordinator.query(QUERY)
    assert time.monotonic() - started < 0.5 + 0.5
    assert reply.outcome.status is Outcome.PARTIAL
    assert reply.submitted == 2 == reply.merged + reply.failed
    assert [row["shard"] for row in reply.results] == ["shard0"] * 2
    assert_failures_named(reply)


def test_primary_stalling_past_its_share_fails_over_to_the_replica():
    # R=2 over two shards: the slice whose primary is shard0 gives it
    # half the deadline, then the replica gets what is left
    stalled = ScriptedShard(rows=1, delay=2.0)
    coordinator = build([stalled, ScriptedShard(rows=1)], replication=2,
                        timeout=1.0)
    victim_slice = next(s for s in ("shard0", "shard1")
                        if coordinator.shard_map.preference_list(s)[0]
                        == "shard0")
    reply = coordinator.query(QUERY)
    assert reply.outcome.status is Outcome.COMPLETE
    entry = reply.outcome.detail["shards"][victim_slice]
    assert entry["replica_used"] == "shard1" and entry["failovers"] == 1
    assert coordinator.stats()["counters"]["failovers"] == 1
    assert_failures_named(reply)


def test_a_limit_inside_a_block_cuts_that_block_and_tags_every_row():
    class BlockClient(ScriptedClient):
        def query(self, query_text, **kwargs):
            reply = super().query(query_text, **kwargs)
            reply.results = AnswerRows.from_wire([{
                "graph": "g", "nodes": ["a"], "edges": ["e"],
                "rows": [[f"v{i}", f"e{i}"] for i in range(len(reply.results))],
            }])
            return reply

    shards = [ScriptedShard(rows=3), ScriptedShard(rows=4)]
    coordinator = build(shards)
    coordinator.client_factory = lambda host, port, timeout=None, \
        client_name="": BlockClient(shards[port])
    reply = coordinator.query(QUERY, limit=5)
    assert reply.outcome.status is Outcome.TRUNCATED
    assert reply.outcome.reason == "global limit reached across shards"
    assert len(reply.results) == reply.outcome.results == 5
    assert [row["shard"] for row in reply.results] == \
        ["shard0"] * 3 + ["shard1"] * 2
    assert reply.results[4] == {"graph": "g", "nodes": {"a": "v1"},
                                "edges": {"e": "e1"}, "shard": "shard1"}
    assert [(block["shard"], len(block["rows"]))
            for block in reply.to_dict()["blocks"]] == [("shard0", 3),
                                                       ("shard1", 2)]
    # the per-shard accounting counts what each shard answered
    assert [entry["rows"] for entry in
            reply.outcome.detail["shards"].values()] == [3, 4]


def test_malformed_shard_reply_fails_only_its_slice():
    class MalformedClient(ScriptedClient):
        def query(self, query_text, **kwargs):
            reply = super().query(query_text, **kwargs)
            reply.results = ["not a row"]
            return reply

    shards = [ScriptedShard(rows=2), ScriptedShard(rows=1)]
    coordinator = build(shards)
    coordinator.client_factory = lambda host, port, timeout=None, \
        client_name="": (MalformedClient if port == 1
                         else ScriptedClient)(shards[port])
    reply = coordinator.query(QUERY)
    assert reply.outcome.status is Outcome.PARTIAL
    assert reply.merged == 1 and len(reply.results) == 2
    assert "fan-out leg failed" in \
        reply.outcome.detail["shards"]["shard1"]["error"]
    assert_failures_named(reply)


def test_empty_target_list_is_a_complete_empty_reply():
    coordinator = build([ScriptedShard(rows=1)])
    reply = coordinator.query(QUERY, shard_ids=[], use_cache=False)
    assert reply.outcome.status is Outcome.COMPLETE
    assert reply.error is None
    assert reply.submitted == 0 and reply.results == []
