"""Unit tests for the execution-governance vocabulary."""

import pytest

from repro.core import Graph, GraphCollection, GroundPattern, clique_motif, select
from repro.runtime import (
    BudgetExhausted,
    CancellationToken,
    DeadlineExceeded,
    ExecutionContext,
    ExecutionInterrupted,
    MemoryBudgetExhausted,
    Outcome,
    QueryCancelled,
    QueryOutcome,
    current_outcome,
    mapping_cost,
)


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestTicks:
    def test_ticks_accumulate_steps(self):
        context = ExecutionContext()
        context.tick(3)
        context.tick()
        assert context.steps == 4

    def test_expensive_check_runs_every_n_ticks(self):
        clock = FakeClock()
        context = ExecutionContext(timeout=1.0, check_every=4, clock=clock)
        clock.now += 5.0  # already past the deadline
        for _ in range(3):
            context.tick()  # below the check interval: no clock read
        with pytest.raises(DeadlineExceeded):
            context.tick()

    def test_check_every_must_be_positive(self):
        with pytest.raises(ValueError):
            ExecutionContext(check_every=0)


class TestDeadline:
    def test_unlimited_by_default(self):
        context = ExecutionContext(check_every=1)
        for _ in range(1000):
            context.tick()
        assert context.outcome().complete

    def test_deadline_raises_timed_out(self):
        clock = FakeClock()
        context = ExecutionContext(timeout=2.0, clock=clock)
        context.check()  # still inside the deadline
        clock.now += 2.5
        with pytest.raises(DeadlineExceeded) as info:
            context.check()
        assert info.value.outcome is Outcome.TIMED_OUT

    def test_remaining_time(self):
        clock = FakeClock()
        context = ExecutionContext(timeout=2.0, clock=clock)
        clock.now += 0.5
        assert context.remaining_time() == pytest.approx(1.5)
        clock.now += 10
        assert context.remaining_time() == 0.0
        assert ExecutionContext().remaining_time() is None


class TestBudgets:
    def test_step_budget(self):
        context = ExecutionContext(max_steps=10, check_every=1)
        with pytest.raises(BudgetExhausted):
            for _ in range(100):
                context.tick()
        assert context.steps == 11  # the violating step was counted

    def test_memory_budget_via_check(self):
        context = ExecutionContext(max_memory=100)
        context.memory_used = 101
        with pytest.raises(MemoryBudgetExhausted):
            context.check()

    def test_answer_cap_truncates(self):
        """The answer cap is the query's ``limit``: the member loop stops
        the searches at it and records TRUNCATED on the context."""
        pairs = GraphCollection()
        for name in ("g1", "g2"):
            pair = Graph(name)
            pair.add_node("a", label="A")
            pair.add_node("b", label="A")
            pairs.add(pair)
        context = ExecutionContext()
        matches = select(pairs, GroundPattern(clique_motif(["A"])),
                         limit=3, context=context)
        assert len(matches) == 3  # of 4 answers
        outcome = context.outcome()
        assert outcome.status is Outcome.TRUNCATED
        assert outcome.results == 3
        assert "answer cap of 3" in outcome.reason

    def test_memory_cap_truncates(self):
        context = ExecutionContext(max_memory=500)
        assert context.note_result(memory=400) is False
        assert context.note_result(memory=400) is True
        assert context.outcome().status is Outcome.TRUNCATED

    def test_mapping_cost_scales_with_entries(self):
        assert mapping_cost(8) > mapping_cost(1) > mapping_cost(0) > 0


class TestCancellation:
    def test_token_cancel_raises(self):
        token = CancellationToken()
        context = ExecutionContext(token=token)
        context.check()
        token.cancel("user hit ^C")
        with pytest.raises(QueryCancelled, match="user hit"):
            context.check()

    def test_first_reason_wins(self):
        token = CancellationToken()
        token.cancel("first")
        token.cancel("second")
        assert token.reason == "first"
        assert token.cancelled


class TestOutcome:
    def test_complete_by_default(self):
        outcome = ExecutionContext().outcome()
        assert outcome.status is Outcome.COMPLETE
        assert outcome.complete and not outcome.interrupted

    def test_mark_interrupted_is_idempotent(self):
        context = ExecutionContext()
        context.mark_interrupted(DeadlineExceeded("late"))
        context.mark_interrupted(BudgetExhausted("over"))
        outcome = context.outcome()
        assert outcome.status is Outcome.TIMED_OUT
        assert "late" in outcome.reason

    def test_interruption_beats_truncation(self):
        context = ExecutionContext()
        context.note_truncated("cap reached")
        context.mark_interrupted(QueryCancelled("stop"))
        assert context.outcome().status is Outcome.CANCELLED

    def test_str_mentions_status_and_reason(self):
        text = str(QueryOutcome(status=Outcome.TIMED_OUT, reason="slow",
                                steps=7, elapsed=0.25))
        assert "TIMED_OUT" in text and "slow" in text and "steps=7" in text

    def test_current_outcome_of_none_is_complete(self):
        assert current_outcome(None).complete

    def test_exception_family(self):
        assert issubclass(DeadlineExceeded, ExecutionInterrupted)
        assert issubclass(MemoryBudgetExhausted, BudgetExhausted)
        assert issubclass(QueryCancelled, ExecutionInterrupted)
