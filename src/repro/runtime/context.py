"""Query-execution governance: deadlines, budgets, cancellation.

The paper's selection operator (Algorithm 4.1) is a backtracking
subgraph-isomorphism search whose worst case is exponential — the paper
caps experiments at 1000 answers because "the graph pattern matching
problem is NP-hard".  A production engine therefore needs every entry
point to be *bounded, interruptible and accountable*.  This module is
the shared vocabulary for that:

* :class:`ExecutionContext` — carried through the matcher, the FLWR
  evaluator, the algebra operators, the Datalog fixpoint and the SQL
  baseline.  It holds a wall-clock deadline, a step budget, a memory
  cap and a cooperative :class:`CancellationToken`.
  Inner loops call :meth:`ExecutionContext.tick` once per unit of work;
  the expensive checks (clock reads, token polls) only run every
  ``check_every`` ticks.
* :class:`Outcome` / :class:`QueryOutcome` — structured result states:
  ``COMPLETE`` (ran to the end), ``TRUNCATED`` (an answer/step/memory
  cap stopped it early, partial results are valid), ``TIMED_OUT`` (the
  deadline expired) and ``CANCELLED`` (the token was cancelled).
* the :class:`ExecutionInterrupted` exception family — raised by
  ``tick``/``check``; search loops catch it, record it on the context
  via :meth:`ExecutionContext.mark_interrupted`, and return the partial
  results accumulated so far.

The protocol for a governed loop is::

    try:
        while work:
            context.tick()
            ... one unit of work ...
    except ExecutionInterrupted as exc:
        context.mark_interrupted(exc)
    return partial_results       # outcome available on the context
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, Optional


class Outcome(str, Enum):
    """The terminal state of one governed execution."""

    COMPLETE = "COMPLETE"
    TRUNCATED = "TRUNCATED"
    TIMED_OUT = "TIMED_OUT"
    CANCELLED = "CANCELLED"
    #: Load shedding turned the request away before any work ran
    #: (admission control in :mod:`repro.service`); no partial results.
    REJECTED = "REJECTED"
    #: Deadline-aware shedding or an open circuit breaker turned the
    #: request away: it *could* have been admitted, but could not have
    #: finished in time.  The response carries a retry-after hint; no
    #: partial results.
    SHED = "SHED"
    #: A scatter-gather query merged answers from only *some* of the
    #: shards it was fanned out to (:mod:`repro.cluster`).  The rows
    #: present are valid, but shards that were down, shed, or timed out
    #: contributed nothing; ``detail["shards"]`` names exactly which,
    #: with ``submitted == merged + failed`` accounting.
    PARTIAL = "PARTIAL"

    def __str__(self) -> str:  # print as the bare word in CLI output
        return self.value


#: The outcomes that are an answer: the rows are the query's whole
#: answer, or its whole answer up to a cap that is part of the request.
#: Only these are replayed from the result cache, merged by the cluster
#: coordinator, and counted as a success by a circuit breaker.
ANSWER_OUTCOMES = frozenset({Outcome.COMPLETE, Outcome.TRUNCATED})


class ExecutionInterrupted(RuntimeError):
    """Base of all governance interruptions (partial results are valid)."""

    outcome = Outcome.TRUNCATED


class DeadlineExceeded(ExecutionInterrupted):
    """The wall-clock deadline expired."""

    outcome = Outcome.TIMED_OUT


class BudgetExhausted(ExecutionInterrupted):
    """The step budget ran out."""

    outcome = Outcome.TRUNCATED


class MemoryBudgetExhausted(BudgetExhausted):
    """The (approximate) result-memory cap was reached."""


class QueryCancelled(ExecutionInterrupted):
    """The cancellation token was triggered."""

    outcome = Outcome.CANCELLED


class CancellationToken:
    """A cooperative cancellation flag shared between caller and query.

    The caller (another thread, a signal handler, a supervising event
    loop) calls :meth:`cancel`; governed loops observe it at their next
    context check and unwind with partial results.
    """

    def __init__(self) -> None:
        self._cancelled = False
        self._lock = threading.Lock()
        self.reason: Optional[str] = None

    def cancel(self, reason: str = "cancelled by caller") -> None:
        """Trigger cancellation (idempotent; first reason wins).

        Safe to call from any thread; governed loops in other threads
        observe the flag at their next context check.
        """
        with self._lock:
            if not self._cancelled:
                self.reason = reason
                self._cancelled = True

    def is_cancelled(self) -> bool:
        """Whether cancellation has been requested (subclassable)."""
        return self._cancelled

    @property
    def cancelled(self) -> bool:
        """Property form of :meth:`is_cancelled`."""
        return self.is_cancelled()


@dataclass
class QueryOutcome:
    """A structured execution result: status plus accounting.

    ``steps`` is the total number of governed work units (candidate
    extensions, derived facts, rows examined) the execution performed.
    """

    status: Outcome = Outcome.COMPLETE
    reason: str = ""
    steps: int = 0
    results: int = 0
    memory_used: int = 0
    elapsed: float = 0.0
    #: structured extras a terminal state may carry — per-shard
    #: accounting for ``PARTIAL``, degradation notes, ...; empty for
    #: plain single-node outcomes (and then omitted from the wire form)
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """True iff the execution ran to its natural end."""
        return self.status is Outcome.COMPLETE

    @property
    def interrupted(self) -> bool:
        """True iff a deadline/budget/cancellation stopped the run."""
        return self.status is not Outcome.COMPLETE

    def __str__(self) -> str:
        bits = [self.status.value]
        if self.reason:
            bits.append(f"({self.reason})")
        bits.append(f"steps={self.steps}")
        bits.append(f"elapsed={self.elapsed * 1000:.1f}ms")
        return " ".join(bits)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict; the one serialization the CLI's ``--json``
        output and the service wire protocol both use."""
        payload = {
            "status": self.status.value,
            "reason": self.reason,
            "steps": self.steps,
            "results": self.results,
            "memory_used": self.memory_used,
            "elapsed": self.elapsed,
        }
        if self.detail:
            payload["detail"] = dict(self.detail)
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "QueryOutcome":
        """Rebuild an outcome from :meth:`to_dict` output (wire decode).

        Unknown keys are ignored and missing keys take the dataclass
        defaults, so the two ends of a connection may run different
        versions of the protocol.
        """
        return cls(
            status=Outcome(data.get("status", Outcome.COMPLETE.value)),
            reason=str(data.get("reason", "")),
            steps=int(data.get("steps", 0)),
            results=int(data.get("results", 0)),
            memory_used=int(data.get("memory_used", 0)),
            elapsed=float(data.get("elapsed", 0.0)),
            detail=dict(data.get("detail") or {}),
        )


def rejected_outcome(reason: str) -> QueryOutcome:
    """The outcome of a request turned away by admission control.

    ``steps == 0`` by construction: a rejected request never executed.
    """
    return QueryOutcome(status=Outcome.REJECTED, reason=reason)


def shed_outcome(reason: str) -> QueryOutcome:
    """The outcome of a request shed before any work ran.

    Distinct from :func:`rejected_outcome`: rejection means the service
    is at capacity, shedding means this *particular* request was not
    worth starting (its deadline is hopeless, or its client's circuit
    breaker is open).  Both carry ``steps == 0``.
    """
    return QueryOutcome(status=Outcome.SHED, reason=reason)


def partial_outcome(reason: str,
                    detail: Optional[Dict[str, Any]] = None) -> QueryOutcome:
    """The outcome of a scatter-gather query some shards never answered.

    The merged rows are valid but incomplete; ``detail`` carries the
    per-shard accounting (which shards merged, which failed and why) so
    callers can decide whether a partial answer is acceptable.
    """
    return QueryOutcome(status=Outcome.PARTIAL, reason=reason,
                        detail=dict(detail) if detail else {})


#: Approximate per-mapping memory cost used by the answer-set cap
#: (a Mapping holds two small dicts of short strings).
MAPPING_BASE_COST = 200
MAPPING_ENTRY_COST = 64


def mapping_cost(entries: int) -> int:
    """Approximate bytes one result mapping of *entries* node and edge
    assignments (its schema width) retains."""
    return MAPPING_BASE_COST + MAPPING_ENTRY_COST * entries


class ExecutionContext:
    """Deadline, budgets and cancellation for one query execution.

    Parameters
    ----------
    timeout:
        Wall-clock budget in seconds (``None`` = unlimited).  The
        deadline starts when the context is created.
    max_steps:
        Budget on governed work units — backtracking extensions, derived
        Datalog facts, SQL rows examined (``None`` = unlimited).
    max_memory:
        Approximate cap in bytes on retained result mappings.
    token:
        A :class:`CancellationToken`; a fresh private one is created
        when omitted, reachable as :attr:`token` so callers can cancel.
    check_every:
        How many ticks between expensive checks (clock read + token
        poll).  Matching the issue's "check the context every N
        extensions"; lower values give tighter deadline precision.
    clock:
        Injectable monotonic clock (tests use a fake).

    A context may be shared across several operators and several graphs:
    the deadline and budgets are global, and once interrupted every
    subsequent :meth:`check` raises again, so downstream stages unwind
    quickly instead of starting fresh work.
    """

    def __init__(
        self,
        timeout: Optional[float] = None,
        max_steps: Optional[int] = None,
        max_memory: Optional[int] = None,
        token: Optional[CancellationToken] = None,
        check_every: int = 128,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        self._clock = clock
        self.started_at = clock()
        self.timeout = timeout
        self.deadline = None if timeout is None else self.started_at + timeout
        self.max_steps = max_steps
        self.max_memory = max_memory
        self.token = token if token is not None else CancellationToken()
        self.check_every = check_every
        self.steps = 0
        self.results = 0
        self.memory_used = 0
        self.interrupted: Optional[ExecutionInterrupted] = None
        self._truncated_reason: Optional[str] = None
        self._since_check = 0

    # -- the hot path ---------------------------------------------------------

    def tick(self, n: int = 1) -> None:
        """Account *n* units of work; periodically run the full check."""
        self.steps += n
        self._since_check += n
        if self._since_check >= self.check_every:
            self._since_check = 0
            self.check()

    def check(self) -> None:
        """Run every governance check now; raises on violation."""
        if self.token.is_cancelled():
            raise QueryCancelled(self.token.reason or "cancelled")
        if self.deadline is not None and self._clock() > self.deadline:
            raise DeadlineExceeded(
                f"deadline of {self.timeout:g}s exceeded"
            )
        if self.max_steps is not None and self.steps > self.max_steps:
            raise BudgetExhausted(
                f"step budget of {self.max_steps} exhausted"
            )
        if self.max_memory is not None and self.memory_used > self.max_memory:
            raise MemoryBudgetExhausted(
                f"memory budget of {self.max_memory} bytes exhausted"
            )

    def note_result(self, count: int = 1, memory: int = 0) -> bool:
        """Account a reported answer; True when the search should stop.

        Returning True (memory cap reached) marks the execution
        ``TRUNCATED``; the result that triggered the cap is kept.  The
        answer cap is not the context's: it is the query's ``limit``,
        which the member loop enforces.
        """
        self.results += count
        self.memory_used += memory
        if self.max_memory is not None and self.memory_used >= self.max_memory:
            self.note_truncated(
                f"memory cap of {self.max_memory} bytes reached"
            )
            return True
        return False

    def charge(self, steps: int, results: int, memory: int) -> None:
        """Account a recorded run at once: the state *steps* :meth:`tick`
        calls and *results* :meth:`note_result` calls retaining *memory*
        bytes leave behind, without their checks (the caller made sure
        the budgets cover them and ran :meth:`check`)."""
        self.steps += steps
        self._since_check = (self._since_check + steps) % self.check_every
        self.results += results
        self.memory_used += memory

    def note_truncated(self, reason: str) -> None:
        """Record that a cap stopped the execution early (no exception)."""
        if self._truncated_reason is None:
            self._truncated_reason = reason

    def mark_interrupted(self, exc: ExecutionInterrupted) -> None:
        """Record the interruption that unwound a governed loop."""
        if self.interrupted is None:
            self.interrupted = exc

    # -- accounting -----------------------------------------------------------

    @property
    def elapsed(self) -> float:
        """Seconds since the context was created."""
        return self._clock() - self.started_at

    def remaining_time(self) -> Optional[float]:
        """Seconds until the deadline (None = unlimited, min 0)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - self._clock())

    @property
    def is_stopped(self) -> bool:
        """Whether an interruption or a cap ended the execution."""
        return self.interrupted is not None or self._truncated_reason is not None

    def outcome(self) -> QueryOutcome:
        """A structured snapshot of the execution state so far."""
        if self.interrupted is not None:
            status = self.interrupted.outcome
            reason = str(self.interrupted)
        elif self._truncated_reason is not None:
            status = Outcome.TRUNCATED
            reason = self._truncated_reason
        else:
            status = Outcome.COMPLETE
            reason = ""
        return QueryOutcome(
            status=status,
            reason=reason,
            steps=self.steps,
            results=self.results,
            memory_used=self.memory_used,
            elapsed=self.elapsed,
        )


def current_outcome(context: Optional[ExecutionContext]) -> QueryOutcome:
    """The outcome snapshot of a context, or a COMPLETE default."""
    if context is None:
        return QueryOutcome()
    return context.outcome()
