"""Scatter-gather soak with a mid-run SIGKILL.

The contract: a 4-shard fan-out keeps
answering after one shard is SIGKILLed mid-soak — every reply turns
PARTIAL with exact per-shard accounting (``submitted == merged +
failed``), the dead shard is named, and nothing hangs.  With every
slice on two supervised shards the same kill must be invisible: zero
PARTIAL replies, and the restarted victim serves its slice again.

Real subprocesses, real SIGKILL, real TCP: this is the test that fails
if the coordinator can deadlock on a half-open connection.  Each test
boots (or shares through a fixture) a cluster whose victim it killed
itself, so every test also passes when run alone.
"""

import time
from collections import Counter

import pytest

from repro.cluster import coordinator as coordinator_module
from repro.cluster import launch_cluster
from repro.datasets.molecules import molecule_collection
from repro.runtime import Outcome

SHARDS = 4
#: aromatic-ring carbons: a couple hundred matches over the collection,
#: spread across every shard's slice
QUERY = ('graph P { node a <label="C">; node b <label="C">; '
         'edge e1 (a, b); }')
MERGED = {Outcome.COMPLETE, Outcome.TRUNCATED}


def boot():
    return launch_cluster(molecule_collection(num_molecules=48, seed=23),
                          num_shards=SHARDS, workers=2, query_timeout=8.0)


def pick_victim(cluster) -> str:
    """A shard whose own slice is nonempty (killing an empty shard would
    prove nothing about failover)."""
    return [s for s in cluster.shard_map.shards
            if cluster.assignment.get(s)][-1]


def audit(reply) -> None:
    """The books every reply must balance, dead shard or not."""
    assert reply.submitted == reply.merged + reply.failed
    detail = reply.outcome.detail
    assert (detail["submitted"], detail["merged"], detail["failed"]) == (
        reply.submitted, reply.merged, reply.failed)
    if reply.outcome.status is not Outcome.TRUNCATED:
        assert len(reply.results) == sum(
            entry["rows"] for entry in detail["shards"].values()
            if entry["merged"])


def soak(cluster, queries, monkeypatch):
    """Run *queries* audited fan-outs, SIGKILLing a data-holding shard
    halfway; returns ``(coordinator, victim, {phase: status counts})``."""
    victim = pick_victim(cluster)
    replicated = cluster.shard_map.replication_factor > 1
    # the probe interval stays far below the soak length so the
    # post-kill phase records real connection failures, not just
    # breaker fast-fails
    monkeypatch.setattr(coordinator_module, "BREAKER_COOLDOWN", 0.5)
    coordinator = cluster.coordinator(timeout=8.0)
    phases = {"healthy": Counter(), "degraded": Counter()}
    for index in range(queries):
        if index == queries // 2:
            cluster.kill(victim)
        phase = "healthy" if index < queries // 2 else "degraded"
        reply = coordinator.query(QUERY, limit=500)
        audit(reply)
        phases[phase][reply.outcome.status] += 1
        if phase == "healthy":
            assert reply.failed == 0 and reply.results, index
        elif replicated:
            assert reply.failed == 0, index
        else:
            assert not reply.outcome.detail["shards"][victim]["merged"]
    return coordinator, victim, phases


def await_recovery(cluster, coordinator, victim, timeout=30.0) -> None:
    """Wait for the supervisor to restart *victim*, then for traffic to
    drift back to it once its breaker's half-open probe succeeds."""
    deadline = time.monotonic() + timeout
    supervisor = cluster.supervisor
    while not (supervisor.stats()["restarts"] >= 1
               and cluster.shards[victim].alive):
        assert time.monotonic() < deadline, supervisor.stats()
        time.sleep(0.1)
    while True:
        reply = coordinator.query(QUERY, limit=500)
        audit(reply)
        entry = reply.outcome.detail["shards"].get(victim, {})
        if entry.get("merged") and entry.get("replica_used") == victim:
            return
        assert time.monotonic() < deadline, f"{victim} never served again"
        time.sleep(0.2)


@pytest.fixture(scope="module")
def degraded():
    """A 4-shard cluster with one data-holding shard already SIGKILLed."""
    with boot() as cluster:
        victim = pick_victim(cluster)
        cluster.kill(victim)
        yield cluster, victim


def test_soak_survives_a_sigkill_with_exact_accounting(monkeypatch):
    with boot() as cluster:
        _, _, phases = soak(cluster, queries=24, monkeypatch=monkeypatch)
    assert set(phases["healthy"]) <= MERGED
    assert phases["degraded"] == {Outcome.PARTIAL: 12}


def test_partial_replies_after_the_kill_name_the_dead_shard(degraded,
                                                           monkeypatch):
    cluster, victim = degraded
    # one query, so at most one failure per shard: no breaker opens
    monkeypatch.setattr(coordinator_module, "BREAKER_THRESHOLD", 2)
    coordinator = cluster.coordinator(timeout=8.0)
    reply = coordinator.query(QUERY, limit=500)
    audit(reply)
    assert reply.outcome.status is Outcome.PARTIAL
    detail = reply.outcome.detail
    assert detail["submitted"] == SHARDS
    dead = detail["shards"][victim]
    assert dead["merged"] is False and dead.get("error")
    # the survivors' rows are present and tagged with their shard
    live_shards = {row["shard"] for row in reply.results}
    assert victim not in live_shards
    assert len(live_shards) == detail["merged"]


def test_replicated_soak_absorbs_a_sigkill_with_zero_partials(monkeypatch):
    # R=2 + supervision: the same drill, but the kill must be invisible
    # (no PARTIAL replies) and the victim must return before teardown
    with launch_cluster(molecule_collection(num_molecules=48, seed=97),
                        num_shards=3, replication_factor=2,
                        supervise=True) as cluster:
        coordinator, victim, phases = soak(cluster, queries=16,
                                           monkeypatch=monkeypatch)
        assert set(phases["healthy"]) | set(phases["degraded"]) <= MERGED
        assert coordinator.stats()["counters"]["failovers"] >= 1
        await_recovery(cluster, coordinator, victim)


def test_no_fanout_hangs_past_its_deadline(degraded):
    # the fan-out must come back within timeout + merge slack, never
    # hang on the corpse
    cluster, _ = degraded
    coordinator = cluster.coordinator(timeout=2.0)
    started = time.monotonic()
    reply = coordinator.query(QUERY, limit=100)
    elapsed = time.monotonic() - started
    assert elapsed < 6.0
    assert reply.submitted == reply.merged + reply.failed
    assert reply.failed == 1
