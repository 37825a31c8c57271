"""The keep-N-slowest slow-query log."""

from __future__ import annotations

from repro.obs.slowlog import MAX_QUERY_CHARS, SlowQueryEntry, SlowQueryLog


def entry(request_id: str, elapsed: float, **kwargs) -> SlowQueryEntry:
    return SlowQueryEntry(request_id=request_id, elapsed=elapsed, **kwargs)


def test_keeps_the_slowest_and_evicts_the_fastest():
    log = SlowQueryLog(capacity=2)
    assert log.record(entry("a", 0.5))
    assert log.record(entry("b", 0.1))
    assert log.record(entry("c", 0.9))       # evicts b (0.1)
    assert not log.record(entry("d", 0.05))  # faster than everything kept
    assert [e.request_id for e in log.entries()] == ["c", "a"]
    assert [e.elapsed for e in log.entries()] == [0.9, 0.5]
    assert len(log) == 2
    assert log.recorded == 3
    assert log.dropped == 2  # b's eviction and d's rejection


def test_ties_break_and_nothing_crashes_on_equal_elapsed():
    log = SlowQueryLog(capacity=3)
    for name in ("a", "b", "c", "d"):
        log.record(entry(name, 0.5))
    assert len(log) == 3
    assert all(e.elapsed == 0.5 for e in log.entries())


def test_snapshot_and_render_are_slowest_first():
    log = SlowQueryLog(capacity=4)
    log.record(entry("q1", 0.2, status="COMPLETE", cache="miss",
                     query="graph P { node a; }",
                     spans={"match.query": {"total": 0.15, "count": 1}}))
    log.record(entry("q2", 0.7, status="TIMED_OUT",
                     reason="deadline exceeded",
                     degradation=["fallback order"]))
    snap = log.snapshot()
    assert [row["request_id"] for row in snap] == ["q2", "q1"]
    assert snap[0]["reason"] == "deadline exceeded"
    assert snap[1]["spans"]["match.query"]["count"] == 1
    lines = log.render_lines()
    assert "TIMED_OUT" in lines[0] and "q2" in lines[0]
    assert "match.query" in lines[1]
    log.clear()
    assert log.entries() == []


def test_oversized_query_text_is_truncated():
    log = SlowQueryLog(capacity=1)
    log.record(entry("big", 1.0, query="x" * (MAX_QUERY_CHARS + 100)))
    stored = log.entries()[0].query
    assert len(stored) == MAX_QUERY_CHARS + 3
    assert stored.endswith("...")
