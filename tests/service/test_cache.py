"""Plan/result cache semantics: LRU order, version invalidation,
outcome cacheability."""

import pytest

from repro.runtime import Outcome, QueryOutcome
from repro.service import LRUCache, ResultCache
from repro.service.cache import make_key


class TestLRU:
    def test_hit_miss_counters(self):
        cache = LRUCache(capacity=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1
        assert cache.misses == 1

    def test_eviction_order_is_least_recently_used(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a
        cache.put("c", 3)       # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_capacity_below_one_is_refused(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)


class TestResultCache:
    def outcome(self, status: Outcome) -> QueryOutcome:
        return QueryOutcome(status=status, results=3)

    def test_complete_and_truncated_are_cacheable(self):
        cache = ResultCache(capacity=4)
        key = make_key("data", "q", ("optimized", 10), 0)
        assert cache.admit(key, [{"g": 1}], self.outcome(Outcome.COMPLETE))
        assert cache.get(key) is not None

    def test_timed_out_and_cancelled_are_never_cached(self):
        cache = ResultCache(capacity=4)
        for status in (Outcome.TIMED_OUT, Outcome.CANCELLED,
                       Outcome.REJECTED):
            key = make_key("data", "q", ("optimized", 10), 0)
            assert not cache.admit(key, [], self.outcome(status))
            assert cache.get(key) is None

    def test_version_bump_changes_the_key(self):
        cache = ResultCache(capacity=4)
        old = make_key("data", "q", ("optimized", 10), version=7)
        new = make_key("data", "q", ("optimized", 10), version=8)
        cache.admit(old, [{"row": 1}], self.outcome(Outcome.COMPLETE))
        assert cache.get(new) is None  # mutation invalidates implicitly
        assert cache.get(old) is not None
