"""Service tuning knobs: the values a deployment sizes.

Every knob has a conservative default that works for the test-scale
graphs in this repository; ``docs/service.md`` discusses how to size
them for real deployments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..runtime import CancellationToken, ExecutionContext


@dataclass
class ServiceConfig:
    """Configuration of one :class:`~repro.service.QueryService`.

    Sizing rules of thumb:

    * ``workers`` is the number of worker threads.  The matcher is pure
      Python, so they only overlap during the interpreter's frequent GIL
      yields: more workers bound tail latency behind one slow query, not
      CPU use.  Serving from several cores means several processes —
      the cluster's shard servers (docs/cluster.md).
    * ``queue_depth`` is how many admitted requests may *wait* beyond the
      ones actively running.  Admission rejects (it never blocks) once
      ``workers + queue_depth`` requests are in flight — load shedding
      with a structured ``REJECTED`` outcome instead of unbounded queues.
    * ``per_client`` caps one client's in-flight share so a single noisy
      client cannot monopolise the pool.
    * ``default_timeout`` seeds each request's context deadline and
      ``default_max_results`` caps its ``limit``; a request may
      *tighten* either, never exceed it.  The deadline runs from
      admission: time a request spends queued for a worker counts
      against it.  Step and memory budgets have
      no service default: a request's own ``max_steps`` /
      ``max_memory`` (if any) are its budgets.

    The per-client circuit breaker and the pool watchdog are not
    configured here: ``BREAKER_THRESHOLD``, ``BREAKER_COOLDOWN`` and
    ``WATCHDOG_MULTIPLE`` in :mod:`repro.service.service` fix them.
    """

    workers: int = 4
    queue_depth: int = 16
    per_client: int = 8

    # per-request governance defaults (None = unlimited)
    default_timeout: Optional[float] = 30.0
    default_max_results: Optional[int] = 1000

    # durable storage: when set, the service opens this log-file
    # GraphStore on startup (opening is its recovery), registers every
    # document it holds, and writes register/load mutations through it;
    # fsync is "commit" or "never"
    store_path: Optional[str] = None
    fsync: str = "commit"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        if self.per_client < 1:
            raise ValueError("per_client must be >= 1")
        from ..storage.wal import check_fsync_policy

        check_fsync_policy(self.fsync)

    @property
    def max_in_flight(self) -> int:
        """Running plus queued requests the service will hold at once."""
        return self.workers + self.queue_depth

    @staticmethod
    def tighten(asked, configured):
        """The effective budget: the smaller of the request's ask and
        the configured default (an unlimited default accepts any ask)."""
        if asked is None:
            return configured
        if configured is None:
            return asked
        return min(asked, configured)

    def derive_context(
        self,
        timeout: Optional[float] = None,
        max_steps: Optional[int] = None,
        max_memory: Optional[int] = None,
        token: Optional[CancellationToken] = None,
    ) -> ExecutionContext:
        """A per-request context from the service defaults.

        A request's timeout may only tighten ``default_timeout``.
        """
        return ExecutionContext(
            timeout=self.tighten(timeout, self.default_timeout),
            max_steps=max_steps,
            max_memory=max_memory,
            token=token,
        )
