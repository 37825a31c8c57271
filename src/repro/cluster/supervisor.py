"""Shard supervision: health-poll children, restart the dead ones.

A :class:`ShardSupervisor` watches every :class:`ShardProcess` of a
:class:`~repro.cluster.bootstrap.LocalCluster` from a daemon thread.
Liveness has two layers:

* **process**: ``Popen.poll()`` — a SIGKILLed or crashed child is dead
  immediately, no probe needed;
* **wire**: the existing ``ready`` / ``health`` ops over a short-lived
  client — a process that is up but wedged (not accepting work) is
  counted unready, and after :data:`UNREADY_THRESHOLD` consecutive misses
  an ``unresponsive`` event is recorded for the operator.

Dead shards are restarted **from their durable stores** (opening a
store is its recovery: :meth:`ShardProcess.respawn` replays the boot
command against the same ``--store`` file) under exponential backoff
and a per-shard :data:`RESTART_BUDGET`; a shard that burns its budget is
abandoned with a terminal event rather than flapping forever.  Every
successful restart publishes the child's fresh port into the cluster's
live endpoint table — the one coordinators hold by reference — so
in-flight traffic fails over *to* a replica and later traffic drifts
*back* once the primary returns.

Stats (:meth:`ShardSupervisor.stats`) and the bounded event log feed
``repro-gql cluster status`` and the cluster soak test.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Any, Dict, List, Optional

logger = logging.getLogger(__name__)

#: bounded event log length (the supervisor may run for hours)
MAX_EVENTS = 200

#: seconds one wire readiness probe may take
PROBE_TIMEOUT = 2.0

#: seconds between supervision passes
POLL_INTERVAL = 0.25

#: consecutive unready probes before a live shard is flagged unresponsive
UNREADY_THRESHOLD = 3

#: respawns (successful or not) one shard may spend before it is abandoned
RESTART_BUDGET = 3

#: a shard's restart backoff starts at BACKOFF_BASE seconds and doubles
#: with every attempt, up to BACKOFF_MAX
BACKOFF_BASE = 0.25
BACKOFF_MAX = 4.0


class ShardSupervisor:
    """Daemon thread that keeps a local cluster's shards serving."""

    def __init__(self, cluster, *, client_factory=None) -> None:
        self.cluster = cluster
        if client_factory is None:
            from ..service.client import ServiceClient

            def client_factory(host: str, port: int):
                return ServiceClient(host, port,
                                     timeout=PROBE_TIMEOUT,
                                     client_name="supervisor")
        self._client_factory = client_factory
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._unready: Dict[str, int] = {}
        #: monotonic time before which a shard's next restart may not run
        self._next_attempt: Dict[str, float] = {}
        #: failed respawns per shard: they spend the restart budget and
        #: grow the backoff just as successful ones do
        self._failed: Dict[str, int] = {}
        self._abandoned: Dict[str, str] = {}
        self._events: List[Dict[str, Any]] = []
        self._restarts = 0
        self._restart_failures = 0
        self._polls = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "ShardSupervisor":
        """Start the watch thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="shard-supervisor", daemon=True)
            self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Stop watching (idempotent; running restarts finish first)."""
        self._stop.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=timeout)

    # -- the watch loop -------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.wait(POLL_INTERVAL):
            try:
                self.poll_once()
            except Exception:  # a poll bug must not kill supervision
                logger.exception("supervisor poll failed")

    def poll_once(self) -> None:
        """One supervision pass over every shard (also callable from
        tests, without the thread)."""
        with self._lock:
            self._polls += 1
        for shard_id, shard in list(self.cluster.shards.items()):
            if shard_id in self._abandoned:
                continue
            if not shard.alive:
                self._handle_dead(shard_id, shard)
            else:
                self._probe(shard_id, shard)

    def _probe(self, shard_id: str, shard) -> None:
        """Wire-level readiness check of one live process."""
        ready, reason = False, "unreachable"
        try:
            with self._client_factory(shard.host, shard.port) as client:
                ready, reason = client.ready()
        except Exception as exc:
            reason = f"{type(exc).__name__}: {exc}"
        with self._lock:
            if ready:
                self._unready.pop(shard_id, None)
                return
            misses = self._unready.get(shard_id, 0) + 1
            self._unready[shard_id] = misses
            threshold_hit = misses == UNREADY_THRESHOLD
        if threshold_hit:
            self._record("unresponsive", shard_id,
                         f"{misses} consecutive unready probes "
                         f"(last: {reason})")

    def _attempts(self, shard_id: str, shard) -> int:
        """Respawns tried so far, successful or not (under the lock)."""
        return shard.restarts + self._failed.get(shard_id, 0)

    def _back_off(self, shard_id: str, shard) -> float:
        """Hold the shard's next restart for a delay that doubles with
        every attempt (under the lock); returns the delay."""
        delay = min(BACKOFF_MAX, BACKOFF_BASE
                    * (2 ** (self._attempts(shard_id, shard) - 1)))
        self._next_attempt[shard_id] = time.monotonic() + delay
        return delay

    def _handle_dead(self, shard_id: str, shard) -> None:
        now = time.monotonic()
        with self._lock:
            if now < self._next_attempt.get(shard_id, 0.0):
                return  # still backing off
            if self._attempts(shard_id, shard) >= RESTART_BUDGET:
                self._abandoned[shard_id] = (
                    f"restart budget ({RESTART_BUDGET}) exhausted")
                message = self._abandoned[shard_id]
            else:
                message = None
        if message is not None:
            self._record("abandoned", shard_id, message)
            return
        rc = shard.process.poll()
        self._record("down", shard_id, f"process exited rc={rc}")
        try:
            shard.respawn()
        except Exception as exc:
            with self._lock:
                self._restart_failures += 1
                self._failed[shard_id] = self._failed.get(shard_id, 0) + 1
                delay = self._back_off(shard_id, shard)
            self._record("restart_failed", shard_id,
                         f"{type(exc).__name__}: {exc}; "
                         f"next attempt in {delay:.2f}s")
            return
        self.cluster.note_restart(shard_id)
        with self._lock:
            self._restarts += 1
            self._unready.pop(shard_id, None)
            # backoff applies to the NEXT death too: a shard that dies
            # right after recovering should not hot-loop
            self._back_off(shard_id, shard)
        banner = (f"recovered {shard_id}: restarted from "
                  f"{shard.data_path} on {shard.host}:{shard.port} "
                  f"(restart #{shard.restarts})")
        logger.warning(banner)
        self._record("restarted", shard_id, banner)

    # -- reporting ------------------------------------------------------------

    def _record(self, kind: str, shard_id: str, detail: str) -> None:
        event = {"time": time.time(), "event": kind,
                 "shard": shard_id, "detail": detail}
        with self._lock:
            self._events.append(event)
            del self._events[:-MAX_EVENTS]

    @property
    def events(self) -> List[Dict[str, Any]]:
        """The bounded event log (down/restarted/abandoned/…)."""
        with self._lock:
            return list(self._events)

    def stats(self) -> Dict[str, Any]:
        """A JSON-ready supervision snapshot."""
        with self._lock:
            return {
                "polls": self._polls,
                "restarts": self._restarts,
                "restart_failures": self._restart_failures,
                "restart_budget": RESTART_BUDGET,
                "unready": dict(self._unready),
                "abandoned": dict(self._abandoned),
                "per_shard_restarts": {
                    sid: sp.restarts
                    for sid, sp in self.cluster.shards.items()},
                "events": list(self._events[-20:]),
            }
