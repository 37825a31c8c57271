"""Resource governance for query execution (deadlines, budgets, cancellation)."""

from .context import (
    ANSWER_OUTCOMES,
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
    partial_outcome,
    rejected_outcome,
    shed_outcome,
)

__all__ = [
    "ANSWER_OUTCOMES",
    "BudgetExhausted",
    "CancellationToken",
    "DeadlineExceeded",
    "ExecutionContext",
    "ExecutionInterrupted",
    "MemoryBudgetExhausted",
    "Outcome",
    "QueryCancelled",
    "QueryOutcome",
    "current_outcome",
    "mapping_cost",
    "partial_outcome",
    "rejected_outcome",
    "shed_outcome",
]
