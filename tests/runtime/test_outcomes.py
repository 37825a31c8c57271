"""QueryOutcome wire round-trips across every terminal state.

The outcome dict is the one serialization the CLI's ``--json`` output,
the service wire protocol, and the cluster coordinator all share; a
field that does not survive ``to_dict() -> from_dict()`` silently
corrupts every consumer at once.  These tests pin the round-trip for
each terminal status, including the ``detail`` payload PARTIAL depends
on for its per-shard accounting.
"""

import json

import pytest

from repro.runtime import (
    Outcome,
    QueryOutcome,
    partial_outcome,
    rejected_outcome,
    shed_outcome,
)


def roundtrip(outcome: QueryOutcome) -> QueryOutcome:
    """Through JSON, exactly as the wire protocol carries it."""
    return QueryOutcome.from_dict(json.loads(json.dumps(outcome.to_dict())))


@pytest.mark.parametrize("status", list(Outcome))
def test_every_terminal_state_round_trips(status):
    outcome = QueryOutcome(
        status=status, reason=f"because {status.value.lower()}",
        steps=1234, results=56, memory_used=7890, elapsed=0.125,
    )
    back = roundtrip(outcome)
    assert back.status is status
    assert back.reason == outcome.reason
    assert back.steps == 1234
    assert back.results == 56
    assert back.memory_used == 7890
    assert back.elapsed == pytest.approx(0.125)
    assert back.detail == {}


@pytest.mark.parametrize("status", list(Outcome))
def test_detail_round_trips_for_every_state(status):
    detail = {
        "submitted": 4, "merged": 3, "failed": 1, "map_version": 7,
        "shards": {
            "shard0": {"merged": True, "rows": 12, "status": "COMPLETE"},
            "shard3": {"merged": False, "rows": 0,
                       "error": "connection refused"},
        },
        "degradation": ["result cache bypassed: document changed"],
    }
    back = roundtrip(QueryOutcome(status=status, detail=detail))
    assert back.detail == detail
    # the copy is deep enough that the wire form owns its dict
    assert back.detail is not detail


def test_empty_detail_is_omitted_from_the_wire_form():
    assert "detail" not in QueryOutcome().to_dict()
    payload = QueryOutcome(detail={"k": 1}).to_dict()
    assert payload["detail"] == {"k": 1}


def test_from_dict_tolerates_missing_and_unknown_keys():
    back = QueryOutcome.from_dict({"status": "TIMED_OUT",
                                   "not_a_field": True})
    assert back.status is Outcome.TIMED_OUT
    assert back.reason == "" and back.detail == {}
    assert QueryOutcome.from_dict({}).status is Outcome.COMPLETE


def test_helper_constructors_carry_their_semantics():
    rejected = roundtrip(rejected_outcome("queue full"))
    assert rejected.status is Outcome.REJECTED
    assert rejected.steps == 0  # never executed, by construction

    shed = roundtrip(shed_outcome("breaker open"))
    assert shed.status is Outcome.SHED
    assert shed.steps == 0

    partial = roundtrip(partial_outcome(
        "1/4 shard(s) did not answer: shard3",
        detail={"submitted": 4, "merged": 3, "failed": 1}))
    assert partial.status is Outcome.PARTIAL
    assert partial.interrupted and not partial.complete
    assert partial.detail["submitted"] == \
        partial.detail["merged"] + partial.detail["failed"]


def test_partial_accounting_survives_nested_per_shard_detail():
    detail = {"submitted": 2, "merged": 1, "failed": 1,
              "shards": {"shard0": {"merged": True, "rows": 3,
                                    "elapsed": 0.004},
                         "shard1": {"merged": False, "rows": 0,
                                    "failovers": 1,
                                    "error": "no answer inside "
                                             "the deadline"}}}
    back = roundtrip(partial_outcome("1/2 shard(s) failed", detail))
    shards = back.detail["shards"]
    assert shards["shard1"]["failovers"] == 1
    assert sum(1 for s in shards.values() if s["merged"]) == \
        back.detail["merged"]
