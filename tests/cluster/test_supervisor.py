"""ShardSupervisor semantics against fake processes.

The supervisor's decisions — restart, back off, abandon, flag
unresponsive — are driven here through ``poll_once()`` with scripted
process and probe fakes, so every branch runs deterministically without
subprocesses or the watch thread.  (Real SIGKILL-and-recover runs live
in ``tests/integration/test_cluster_soak.py``.)
"""

import time

from repro.cluster import supervisor as supervisor_module
from repro.cluster.supervisor import ShardSupervisor


class FakeShard:
    """Mimics the ShardProcess surface the supervisor touches."""

    class _Process:
        def __init__(self, shard):
            self.shard = shard
            self.pid = 12345

        def poll(self):
            return None if self.shard.alive else -9

    def __init__(self, alive=True, respawn_error=None):
        self.alive = alive
        self.restarts = 0
        self.respawn_error = respawn_error
        self.respawns = 0
        self.host, self.port = "127.0.0.1", 1111
        self.data_path = "/tmp/fake.store"
        self.process = self._Process(self)

    def respawn(self):
        self.respawns += 1
        if self.respawn_error is not None:
            raise self.respawn_error
        self.alive = True
        self.port += 1  # a fresh OS-assigned port every boot
        self.restarts += 1
        return {"host": self.host, "port": self.port}


class FakeCluster:
    def __init__(self, shards):
        self.shards = shards
        self.noted = []

    def note_restart(self, shard_id):
        self.noted.append(shard_id)


class ReadyClient:
    def __init__(self, answer=(True, "")):
        self.answer = answer

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None

    def ready(self):
        if isinstance(self.answer, Exception):
            raise self.answer
        return self.answer


def supervise(cluster, probe=(True, "")):
    return ShardSupervisor(
        cluster, client_factory=lambda host, port: ReadyClient(probe))


def tune(monkeypatch, **constants):
    """Set the supervisor's module constants for one test."""
    for name, value in constants.items():
        monkeypatch.setattr(supervisor_module, name, value)


def test_dead_shard_is_restarted_and_the_endpoint_published():
    shard = FakeShard(alive=False)
    cluster = FakeCluster({"shard0": shard})
    supervisor = supervise(cluster)
    supervisor.poll_once()
    assert shard.respawns == 1 and shard.alive
    assert cluster.noted == ["shard0"]  # the fresh port was published
    stats = supervisor.stats()
    assert stats["restarts"] == 1
    assert stats["per_shard_restarts"]["shard0"] == 1
    kinds = [e["event"] for e in supervisor.events]
    assert kinds == ["down", "restarted"]


def test_restart_budget_abandons_a_flapping_shard(monkeypatch):
    tune(monkeypatch, RESTART_BUDGET=2)
    shard = FakeShard(alive=False)
    shard.restarts = 2  # already restarted twice
    cluster = FakeCluster({"shard0": shard})
    supervisor = supervise(cluster)
    supervisor.poll_once()
    assert shard.respawns == 0  # budget gone: no third attempt
    assert supervisor.stats()["abandoned"] == {
        "shard0": "restart budget (2) exhausted"}
    # abandoned shards are skipped entirely on later polls
    supervisor.poll_once()
    assert shard.respawns == 0
    assert [e["event"] for e in supervisor.events] == ["abandoned"]


def test_failed_restart_backs_off_before_retrying(monkeypatch):
    tune(monkeypatch, BACKOFF_BASE=30.0)
    shard = FakeShard(alive=False, respawn_error=RuntimeError("no boot"))
    cluster = FakeCluster({"shard0": shard})
    supervisor = supervise(cluster)
    supervisor.poll_once()
    assert shard.respawns == 1
    assert supervisor.stats()["restart_failures"] == 1
    supervisor.poll_once()  # inside the backoff window: no attempt
    assert shard.respawns == 1
    kinds = [e["event"] for e in supervisor.events]
    assert kinds == ["down", "restart_failed"]


def test_backoff_window_lapses_and_the_retry_runs(monkeypatch):
    tune(monkeypatch, BACKOFF_BASE=0.02, BACKOFF_MAX=0.02)
    shard = FakeShard(alive=False, respawn_error=RuntimeError("no boot"))
    cluster = FakeCluster({"shard0": shard})
    supervisor = supervise(cluster)
    supervisor.poll_once()
    shard.respawn_error = None  # the transient boot problem clears
    time.sleep(0.05)
    supervisor.poll_once()
    assert shard.respawns == 2 and shard.alive
    assert supervisor.stats()["restarts"] == 1


def test_a_shard_that_never_reboots_spends_its_budget_and_is_abandoned(
        monkeypatch):
    # failed respawns count against the budget and double the backoff,
    # as successful ones do: no endless respawn loop on a corrupt store
    tune(monkeypatch, RESTART_BUDGET=3, BACKOFF_BASE=0.01, BACKOFF_MAX=10.0)
    shard = FakeShard(alive=False, respawn_error=RuntimeError("corrupt"))
    cluster = FakeCluster({"shard0": shard})
    supervisor = supervise(cluster)
    for _ in range(40):
        if supervisor.stats()["abandoned"]:
            break
        supervisor.poll_once()
        time.sleep(0.01)
    assert shard.respawns == 3
    assert supervisor.stats()["abandoned"] == {
        "shard0": "restart budget (3) exhausted"}
    delays = [float(e["detail"].rsplit(" in ", 1)[1].rstrip("s"))
              for e in supervisor.events if e["event"] == "restart_failed"]
    assert delays == [0.01, 0.02, 0.04]


def test_consecutive_unready_probes_flag_the_shard(monkeypatch):
    tune(monkeypatch, UNREADY_THRESHOLD=3)
    shard = FakeShard(alive=True)
    cluster = FakeCluster({"shard0": shard})
    supervisor = supervise(cluster, probe=(False, "draining"))
    for _ in range(4):
        supervisor.poll_once()
    events = [e for e in supervisor.events
              if e["event"] == "unresponsive"]
    assert len(events) == 1  # flagged once at the threshold, not spammed
    assert "draining" in events[0]["detail"]
    assert supervisor.stats()["unready"]["shard0"] == 4
    # a live process is never restarted for being unready
    assert shard.respawns == 0


def test_a_ready_probe_resets_the_unready_streak(monkeypatch):
    tune(monkeypatch, UNREADY_THRESHOLD=3)
    shard = FakeShard(alive=True)
    cluster = FakeCluster({"shard0": shard})
    supervisor = supervise(cluster, probe=(False, "warming up"))
    supervisor.poll_once()
    supervisor.poll_once()
    supervisor._client_factory = lambda host, port: ReadyClient((True, ""))
    supervisor.poll_once()
    assert supervisor.stats()["unready"] == {}
    assert all(e["event"] != "unresponsive" for e in supervisor.events)


def test_probe_exceptions_count_as_unready_not_crashes(monkeypatch):
    tune(monkeypatch, UNREADY_THRESHOLD=1)
    shard = FakeShard(alive=True)
    cluster = FakeCluster({"shard0": shard})
    supervisor = supervise(cluster,
                           probe=ConnectionRefusedError("refused"))
    supervisor.poll_once()
    events = supervisor.events
    assert events[0]["event"] == "unresponsive"
    assert "ConnectionRefusedError" in events[0]["detail"]


def test_start_and_stop_are_idempotent(monkeypatch):
    tune(monkeypatch, POLL_INTERVAL=0.01)
    cluster = FakeCluster({"shard0": FakeShard(alive=True)})
    supervisor = supervise(cluster)
    supervisor.start()
    supervisor.start()
    time.sleep(0.05)
    supervisor.stop()
    supervisor.stop()
    assert supervisor.stats()["polls"] >= 1
