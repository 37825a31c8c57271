"""A ring-buffered slow-query log.

Keeps the N *slowest* requests (32 in the service).  Eviction is by
elapsed time: when the log is full, a new entry replaces the current
fastest entry only if it is slower — so the log always holds the worst
offenders seen so far, not merely the most recent ones.

Exposed through the service ``stats`` response (``slow_queries``) and
dumped on SIGTERM drain by ``repro-gql serve``.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["SlowQueryEntry", "SlowQueryLog"]

#: Query text longer than this is truncated in the log entry.
MAX_QUERY_CHARS = 500


@dataclass
class SlowQueryEntry:
    """One logged request."""

    request_id: str
    client: str = "anon"
    document: str = "data"
    query: str = ""
    elapsed: float = 0.0
    status: str = ""
    reason: Optional[str] = None
    cache: str = "bypass"
    degradation: List[str] = field(default_factory=list)
    #: per-span-name ``{"total": seconds, "count": n}`` aggregates of the
    #: request's trace tree (empty when tracing was disabled)
    spans: Dict[str, Dict[str, float]] = field(default_factory=dict)
    when: float = field(default_factory=time.time)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (the ``stats`` payload)."""
        return {
            "request_id": self.request_id,
            "client": self.client,
            "document": self.document,
            "query": self.query,
            "elapsed": self.elapsed,
            "status": self.status,
            "reason": self.reason,
            "cache": self.cache,
            "degradation": list(self.degradation),
            "spans": {name: dict(times)
                      for name, times in self.spans.items()},
            "when": self.when,
        }

    def summary(self) -> str:
        """One log/dump line."""
        spans = ", ".join(
            f"{name}={times['total'] * 1000:.1f}ms"
            for name, times in itertools.islice(self.spans.items(), 3))
        notes = f" degraded={len(self.degradation)}" if self.degradation else ""
        return (f"{self.elapsed * 1000:8.1f}ms {self.status:<9} "
                f"client={self.client} id={self.request_id} "
                f"cache={self.cache}{notes} "
                f"query={self.query[:80]!r}"
                + (f" [{spans}]" if spans else ""))


class SlowQueryLog:
    """Thread-safe store of the N slowest requests."""

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        #: min-heap of (elapsed, seq, entry) — the root is the fastest
        #: logged entry, i.e. the next eviction victim
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self.recorded = 0
        self.dropped = 0

    def record(self, entry: SlowQueryEntry) -> bool:
        """Offer one entry; returns whether it was kept."""
        if len(entry.query) > MAX_QUERY_CHARS:
            entry.query = entry.query[:MAX_QUERY_CHARS] + "..."
        item = (entry.elapsed, next(self._seq), entry)
        with self._lock:
            if len(self._heap) < self.capacity:
                heapq.heappush(self._heap, item)
                self.recorded += 1
                return True
            if entry.elapsed <= self._heap[0][0]:
                # faster than everything logged: not interesting
                self.dropped += 1
                return False
            heapq.heapreplace(self._heap, item)
            self.recorded += 1
            self.dropped += 1
        return True

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def entries(self) -> List[SlowQueryEntry]:
        """Logged entries, slowest first."""
        with self._lock:
            items = sorted(self._heap, reverse=True)
        return [entry for _elapsed, _seq, entry in items]

    def snapshot(self) -> List[Dict[str, Any]]:
        """JSON-ready entries, slowest first."""
        return [entry.to_dict() for entry in self.entries()]

    def render_lines(self) -> List[str]:
        """Dump lines, slowest first (the SIGTERM drain dump)."""
        return [entry.summary() for entry in self.entries()]

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._heap = []
