"""Service resilience primitives: breakers and the shed policy.

The serving path of :class:`~repro.service.QueryService` must *bend,
not break* under adversarial load.  This module holds the two
mechanisms that make that happen, each deliberately tiny and lock-cheap:

* :class:`CircuitBreaker` / :class:`BreakerRegistry` — a per-client
  CLOSED → OPEN → HALF_OPEN state machine.  A run of consecutive
  failures or timeouts opens the circuit; while open, the client's
  requests are shed in microseconds with a ``Retry-After`` hint instead
  of burning a worker on a query that will fail anyway.  After the
  cooldown one probe request is let through (HALF_OPEN); its success
  closes the circuit, its failure re-opens it.
* :class:`QueueWaitEstimator` — a sliding window of observed
  admission-to-execution waits.  Its p95 is the *shed policy* input: a
  request whose whole deadline is below the p95 queue wait cannot
  possibly finish in time, so the service sheds it immediately with a
  structured ``SHED`` outcome (deadline-aware load shedding).

A retried query is not answered from any table here: every wire op is
read-only, so a retry simply runs again, or hits the version-keyed
result cache (:mod:`repro.service.cache`) like any repeat.

Everything here is deterministic and dependency-free; the chaos harness
(``tests/service/chaos.py``) drives both through real sockets.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = [
    "STATE_CLOSED",
    "STATE_OPEN",
    "STATE_HALF_OPEN",
    "CircuitBreaker",
    "BreakerRegistry",
    "QueueWaitEstimator",
]

#: Breaker states (stable strings: they appear in stats and metrics).
STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half_open"


class CircuitBreaker:
    """One client's CLOSED → OPEN → HALF_OPEN failure breaker.

    ``threshold`` consecutive failures open the circuit for ``cooldown``
    seconds.  While open, :meth:`allow` returns the remaining cooldown
    as a retry-after hint.  After the cooldown the breaker turns
    HALF_OPEN and admits a single probe; the probe's outcome decides
    whether the circuit closes again or re-opens for another cooldown.
    """

    def __init__(self, threshold: int = 5, cooldown: float = 5.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown <= 0:
            raise ValueError("cooldown must be > 0")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self.state = STATE_CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.opened_total = 0  # times the circuit has opened (monotone)
        self._probe_in_flight = False
        self._probe_started_at: Optional[float] = None
        self._probe_holder: object = None

    def allow(self, holder: object = None) -> Tuple[bool, Optional[float]]:
        """Whether a request may pass, plus a retry-after hint when not.

        The hint is the seconds until the next HALF_OPEN probe slot —
        what the shed response carries back to the client.  A HALF_OPEN
        pass hands the probe slot to *holder*, the only caller
        :meth:`release_probe` will take it back from.
        """
        with self._lock:
            if self.state == STATE_CLOSED:
                return True, None
            now = self._clock()
            if self.state == STATE_OPEN:
                opened = now if self.opened_at is None else self.opened_at
                remaining = opened + self.cooldown - now
                if remaining > 0:
                    return False, remaining
                self.state = STATE_HALF_OPEN
                self._clear_probe()
            # HALF_OPEN: exactly one probe at a time.  A probe whose
            # outcome never arrived (its request was turned away
            # downstream, its connection died mid-flight) must not hold
            # the slot forever: after a full cooldown it is presumed
            # lost and the slot is re-offered.
            if self._probe_in_flight:
                started = self._probe_started_at
                if started is not None and now - started < self.cooldown:
                    return False, max(0.0, started + self.cooldown - now)
            self._probe_in_flight = True
            self._probe_started_at = now
            self._probe_holder = holder
            return True, None

    def release_probe(self, holder: object) -> None:
        """Give back a HALF_OPEN probe slot without an outcome.

        Called when a request the breaker admitted is turned away
        before it executes or finishes with a neutral outcome: the probe
        neither succeeded nor failed, so the next request should get the
        slot instead of waiting out the lost-probe timeout.  Only the
        probe's *holder* can give it back — any other request ending
        neutrally (one admitted while CLOSED, say) leaves a live probe
        alone, or the next request would become a second concurrent
        probe.
        """
        with self._lock:
            # a holder is recorded only while its probe is in flight
            if holder is not None and holder is self._probe_holder:
                self._clear_probe()

    def _clear_probe(self) -> None:
        self._probe_in_flight = False
        self._probe_started_at = None
        self._probe_holder = None

    def record_success(self) -> None:
        """A finished request succeeded: reset towards CLOSED.

        Ignored while OPEN: a straggler admitted before the circuit
        opened that happens to succeed must not short-circuit the
        cooldown — only a HALF_OPEN probe may close the circuit during
        a partial outage.
        """
        with self._lock:
            if self.state == STATE_OPEN:
                return
            self.state = STATE_CLOSED
            self.consecutive_failures = 0
            self.opened_at = None
            self._clear_probe()

    def record_failure(self) -> None:
        """A finished request failed/timed out: count towards OPEN."""
        with self._lock:
            self.consecutive_failures += 1
            if (self.state == STATE_HALF_OPEN
                    or self.consecutive_failures >= self.threshold):
                if self.state != STATE_OPEN:
                    self.opened_total += 1
                self.state = STATE_OPEN
                self.opened_at = self._clock()
                self._clear_probe()

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready view for ``stats()``."""
        with self._lock:
            view: Dict[str, Any] = {
                "state": self.state,
                "consecutive_failures": self.consecutive_failures,
                "opened_total": self.opened_total,
            }
            if self.state == STATE_OPEN and self.opened_at is not None:
                view["retry_after"] = max(
                    0.0, self.opened_at + self.cooldown - self._clock())
            return view


class BreakerRegistry:
    """Per-client breakers, created on first sight of a client name."""

    def __init__(self, threshold: int = 5, cooldown: float = 5.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, client: str) -> CircuitBreaker:
        """The (lazily created) breaker of one client."""
        with self._lock:
            breaker = self._breakers.get(client)
            if breaker is None:
                breaker = CircuitBreaker(self.threshold, self.cooldown,
                                         clock=self._clock)
                self._breakers[client] = breaker
            return breaker

    def allow(self, client: str,
              holder: object = None) -> Tuple[bool, Optional[float]]:
        """Shorthand for ``breaker(client).allow(holder)``."""
        return self.breaker(client).allow(holder)

    def record(self, client: str, failed: bool) -> None:
        """Account one finished request for *client*."""
        breaker = self.breaker(client)
        if failed:
            breaker.record_failure()
        else:
            breaker.record_success()

    def release_probe(self, client: str, holder: object) -> None:
        """Return *client*'s HALF_OPEN probe slot if *holder* holds it."""
        with self._lock:
            breaker = self._breakers.get(client)
        if breaker is not None:
            breaker.release_probe(holder)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Every known client's breaker state (for ``stats()``)."""
        with self._lock:
            breakers = dict(self._breakers)
        return {client: breaker.snapshot()
                for client, breaker in breakers.items()}

    def state_counts(self) -> Dict[str, int]:
        """How many breakers sit in each state (Prometheus gauges)."""
        counts = {STATE_CLOSED: 0, STATE_OPEN: 0, STATE_HALF_OPEN: 0}
        with self._lock:
            breakers = list(self._breakers.values())
        for breaker in breakers:
            counts[breaker.state] = counts.get(breaker.state, 0) + 1
        return counts


class QueueWaitEstimator:
    """A sliding window of queue waits with a p95 read-out.

    ``observe()`` is one deque append under a lock — cheap enough for
    the per-request hot path.  ``p95()`` returns ``None`` until
    ``min_samples`` waits have been seen, so a cold service never sheds
    on noise.
    """

    def __init__(self, window: int = 256, min_samples: int = 10) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.min_samples = min_samples
        self._lock = threading.Lock()
        self._waits: "deque[float]" = deque(maxlen=window)

    def observe(self, wait: float) -> None:
        """Record one admission-to-execution wait (seconds)."""
        with self._lock:
            self._waits.append(max(0.0, wait))

    def p95(self) -> Optional[float]:
        """The window's 95th-percentile wait, or None while cold."""
        with self._lock:
            if len(self._waits) < self.min_samples:
                return None
            ordered = sorted(self._waits)
        return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]

    def __len__(self) -> int:
        with self._lock:
            return len(self._waits)

