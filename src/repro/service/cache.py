"""Prepared-query and result caches for the query service.

The prepared-query cache is keyed by query *text* alone: parsing,
analysis and compilation depend on nothing else, so one admission-time
lookup serves validation and execution, whatever the document, options
or data version (:class:`PreparedQueryCache`).

The result cache keys on ``(document, query text, options signature,
version)``.  The version component pairs the document's registration
number (:meth:`GraphDatabase.registration`, bumped when a different
collection object is registered) with the sum of its graphs' mutation
counters (:attr:`repro.core.graph.Graph.version` increments on every
node/edge change).  The sum alone is not an identity — two different
collections can add up alike — but within one registered object it
only grows, so any mutation or replacement makes every older entry
unreachable.  The dead entries age out of the LRU instead of needing an
invalidation sweep, and this is the only cache that replays a served
answer: the server's retries and the cluster coordinator's fan-outs
both reach it (or run again) rather than keeping answers of their own.
It stores the run's :class:`~repro.storage.database.Answers` as they
are — the searches' own blocks, each row one flat tuple of ids, and the
notes — plus the outcome.  The blocks' rows are the tuples the search
emitted, so the entry shares them with the small-member memo and with
every reply instead of holding a copy; a hit does no per-row work.  It
stores them only for runs whose outcome is deterministic given the key:
``COMPLETE``, or ``TRUNCATED`` by a cap that is itself part of the key —
the options signature covers the answer cap *and* the effective
step/memory budgets (:meth:`QueryService._options_key`), so a budget-truncated partial
answer is only replayed to requests with identical budgets.  A
``TIMED_OUT`` run under one caller's deadline must never be replayed to
another caller.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Tuple

from ..analysis.diagnostics import to_wire
from ..lang.compiler import prepare_pattern_text
from ..runtime import ANSWER_OUTCOMES, QueryOutcome


class LRUCache:
    """A thread-safe LRU mapping with hit/miss counters."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value, or None; refreshes LRU order on hit."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
            self.misses += 1
            return None

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/update an entry, evicting the least recently used."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """Counters for the metrics snapshot."""
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


@dataclass(frozen=True)
class PreparedQuery:
    """One query text after its single parse + analysis (+ compile).

    ``errors`` holds the error-severity diagnostics in wire form; it is
    empty exactly when ``pattern`` (the compiled pattern) is present.
    """

    errors: Tuple[Dict[str, Any], ...] = ()
    pattern: Any = None


#: Prepared-query entries (one per distinct query text) the service and
#: the cluster coordinator each keep.
PLAN_CACHE_SIZE = 256

#: Answers (one per distinct result-cache key) the service keeps.
RESULT_CACHE_SIZE = 256


class PreparedQueryCache(LRUCache):
    """Text-keyed LRU of :class:`PreparedQuery` (valid or not)."""

    def prepare(self, text: str) -> Tuple[PreparedQuery, bool]:
        """The prepared form of *text*, and whether it was cached."""
        prepared = self.get(text)
        if prepared is not None:
            return prepared, True
        errors, pattern = prepare_pattern_text(text)
        prepared = PreparedQuery(tuple(to_wire(errors)), pattern)
        self.put(text, prepared)
        return prepared, False


CacheKey = Tuple[str, str, Hashable, Hashable]


def make_key(document: str, query_text: str, options_key: Hashable,
             version: Hashable) -> CacheKey:
    """The result-cache key."""
    return (document, query_text, options_key, version)


class ResultCache(LRUCache):
    """LRU of ``(answer, QueryOutcome)`` keyed by :func:`make_key`; the
    service's answer is a run's :class:`~repro.storage.database.Answers`."""

    def admit(self, key: CacheKey, answers: Any,
              outcome: QueryOutcome) -> bool:
        """Store a finished query iff its outcome is an answer
        (:data:`~repro.runtime.ANSWER_OUTCOMES`): those are a pure
        function of the cache key and therefore safe to replay."""
        if outcome.status not in ANSWER_OUTCOMES:
            return False
        self.put(key, (answers, outcome))
        return True
