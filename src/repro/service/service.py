"""The :class:`QueryService` facade: concurrent queries over registered graphs.

One service wraps one :class:`~repro.storage.database.GraphDatabase` and
adds everything the library-level matcher lacks for serving traffic:

* a bounded pool of worker threads,
* admission control (global + per-client bounds, structured rejection),
* a text-keyed prepared-query cache and a version-invalidated result
  cache,
* per-request :class:`~repro.runtime.ExecutionContext` governance with
  cancellation by request id,
* metrics for every decision the service takes.

The synchronous entry point is :meth:`QueryService.execute`; concurrent
callers use :meth:`QueryService.submit`, which never blocks — it returns
a future that resolves to a :class:`QueryResponse` (possibly an
already-resolved ``REJECTED`` one).
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple, Union

from ..core.collection import GraphCollection
from ..core.graph import Graph
from ..core.pattern import GraphPattern, GroundPattern
from ..matching.planner import MatchOptions, baseline_options, optimized_options
from ..obs.metrics import MetricsRegistry, render_prometheus
from ..obs.slowlog import SlowQueryEntry, SlowQueryLog
from ..obs.trace import span as trace_span, tracer
from ..runtime import (ANSWER_OUTCOMES, CancellationToken,
                       ExecutionContext, Outcome, QueryOutcome,
                       rejected_outcome, shed_outcome)
from ..storage.database import Answers, GraphDatabase
from ..storage.serializer import load_collection
from .admission import (REASON_DRAINING, REASON_DUPLICATE_ID,
                        REASON_INVALID_QUERY, AdmissionController)
from .cache import (PLAN_CACHE_SIZE, RESULT_CACHE_SIZE, PreparedQuery,
                    PreparedQueryCache, ResultCache, make_key)
from .config import ServiceConfig
from .metrics import ServiceMetrics
from .protocol import AnswerRows
from .resilience import BreakerRegistry, QueueWaitEstimator

logger = logging.getLogger(__name__)

#: Seconds :meth:`QueryService.drain` waits for in-flight queries before
#: cancelling them, unless the caller passes its own deadline.
DRAIN_TIMEOUT = 5.0

#: Consecutive failures or timeouts from one client that open its
#: circuit breaker, and the seconds the open breaker sheds that client
#: before one HALF_OPEN probe decides.  Read when a service is built.
BREAKER_THRESHOLD = 8
BREAKER_COOLDOWN = 5.0

_request_ids = itertools.count(1)


def _next_request_id() -> str:
    return f"q{next(_request_ids)}"


PatternLike = Union[str, GraphPattern, GroundPattern]


@dataclass
class QueryRequest:
    """One query submission.

    ``query`` is GraphQL pattern text or an already compiled pattern;
    only text queries are cacheable (a compiled object has no stable
    cache identity).  The governance fields may tighten, never exceed,
    the service defaults.
    """

    query: PatternLike
    document: str = "data"
    client: str = "anon"
    request_id: str = field(default_factory=_next_request_id)
    limit: Optional[int] = None
    timeout: Optional[float] = None
    max_steps: Optional[int] = None
    max_memory: Optional[int] = None
    baseline: bool = False
    use_cache: bool = True
    #: remote trace context ``(trace_id, parent_span_id)`` received over
    #: the wire; the request's root span joins that distributed trace
    trace_parent: Optional[Tuple[int, int]] = None


@dataclass
class QueryResponse:
    """One query's answer: rows plus the structured outcome.

    ``results`` is the read-only :class:`~repro.service.protocol.AnswerRows`
    view over the answer's blocks (rows read as
    ``{"graph": name, "nodes": {...}, "edges": {...}}`` dicts), ``cache``
    is ``"hit"`` / ``"miss"`` / ``"bypass"``, ``error`` carries a
    compile/internal failure message (rows empty, outcome still present),
    and ``versions`` the document version the run or the cache probe
    was keyed on (empty when the document is unknown or the request was
    turned away): replicated coordinators compare these across the
    replicas of one slice to detect divergent stores.
    """

    request_id: str
    client: str = "anon"
    results: AnswerRows = field(default_factory=AnswerRows)
    outcome: QueryOutcome = field(default_factory=QueryOutcome)
    cache: str = "bypass"
    elapsed: float = 0.0
    error: Optional[str] = None
    #: planner fallback notes (one per degradation the matcher took)
    degradation: List[str] = field(default_factory=list)
    #: seconds after which a SHED request is worth retrying (the
    #: observed p95 queue wait, or the breaker's remaining cooldown)
    retry_after: Optional[float] = None
    versions: Dict[str, int] = field(default_factory=dict)

    @property
    def rejected(self) -> bool:
        """Whether admission control turned this request away."""
        return self.outcome.status is Outcome.REJECTED

    @property
    def shed(self) -> bool:
        """Whether load shedding / an open breaker turned this away."""
        return self.outcome.status is Outcome.SHED

    def to_dict(self) -> Dict[str, Any]:
        """The wire form of this response (protocol payload)."""
        payload = {
            "request_id": self.request_id,
            "client": self.client,
            "blocks": self.results.to_wire(),
            "outcome": self.outcome.to_dict(),
            "cache": self.cache,
            "elapsed": self.elapsed,
            "error": self.error,
            "degradation": list(self.degradation),
        }
        if self.retry_after is not None:
            payload["retry_after"] = self.retry_after
        if self.versions:
            payload["versions"] = dict(self.versions)
        return payload


@dataclass
class _Inflight:
    """One request's service-side state, from :meth:`QueryService.submit`
    to :meth:`QueryService._complete`.

    ``slot`` and ``admitted`` record how far the turn-away stages let the
    request in: the quota stage gives it an admission slot, the unique-id
    stage puts it in the in-flight map, after which it counts as
    admitted.
    """

    request: QueryRequest
    #: the ``service.request`` trace span (a no-op span when disabled)
    root: Any
    token: CancellationToken = field(default_factory=CancellationToken)
    future: "Future[QueryResponse]" = field(default_factory=Future)
    #: the admission-time prepared query (None for a compiled pattern)
    prepared: Optional[PreparedQuery] = None
    slot: bool = False
    admitted: bool = False
    submitted_at: float = 0.0
    #: the request's governance and its one deadline, created when it
    #: is handed to the pool: the deadline counts the time spent queued
    context: Optional[ExecutionContext] = None


def _reply(request: QueryRequest, outcome: QueryOutcome,
           **fields: Any) -> QueryResponse:
    """A response to *request* carrying *outcome*."""
    return QueryResponse(request_id=request.request_id,
                         client=request.client, outcome=outcome, **fields)


#: What a failed execution answers.
NO_ANSWERS = Answers((), ())


def _answer_reply(request: QueryRequest, answers: Answers,
                  outcome: QueryOutcome, snapshot: Optional[Tuple[int, int]],
                  **fields: Any) -> QueryResponse:
    """A response carrying a row view over *answers*' blocks, a new
    notes list and a copy of *outcome*: the blocks are immutable, so the
    reply shares them with the result cache, which keeps *answers* and
    *outcome* for later hits.  *snapshot* is the ``(registration,
    version)`` the run was keyed on."""
    return _reply(request, replace(outcome, detail=dict(outcome.detail)),
                  results=AnswerRows(answers.blocks),
                  degradation=list(answers.notes),
                  versions=({} if snapshot is None
                            else {request.document: snapshot[1]}),
                  **fields)


class QueryService:
    """Concurrent query execution with admission control and caching."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        database: Optional[GraphDatabase] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.database = database or GraphDatabase()
        self.registry = MetricsRegistry()
        self.metrics = ServiceMetrics(self.registry)
        self.slow_log = SlowQueryLog()
        self.admission = AdmissionController(self.config)
        #: query text -> its one parse + analysis + compile, consulted
        #: once per request at admission
        self.plan_cache = PreparedQueryCache(PLAN_CACHE_SIZE)
        self.result_cache = ResultCache(RESULT_CACHE_SIZE)
        self.breakers = BreakerRegistry(threshold=BREAKER_THRESHOLD,
                                        cooldown=BREAKER_COOLDOWN)
        self.queue_wait = QueueWaitEstimator()
        #: the turn-away stages :meth:`submit` runs, in order
        self._stages = (self._validate, self._check_breaker,
                        self._check_deadline, self._check_quota,
                        self._check_unique_id)
        self._register_gauges()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._in_flight: Dict[str, _Inflight] = {}
        self._lock = threading.Lock()
        self._closed = False
        #: test seam: called on the worker thread right before a query
        #: executes (tests hold a worker here, or overrun the deadline)
        self.execute_hook: Optional[Callable[[QueryRequest], None]] = None
        #: what opening the durable store found/repaired (None without one)
        self.recovery = None
        if self.config.store_path:
            self.recovery = self.database.attach_durable(
                self.config.store_path, fsync=self.config.fsync)
            if not self.recovery.clean:
                logger.warning("store recovery ran: %s",
                               self.recovery.to_dict())

    def _register_gauges(self) -> None:
        """Live state exposed as callback gauges (read at scrape time)."""
        reg = self.registry
        reg.gauge("repro_service_in_flight",
                  "Requests admitted and not yet finished.",
                  fn=lambda: self.admission.in_flight)
        reg.gauge("repro_service_draining",
                  "1 while the service refuses new admissions.",
                  fn=lambda: int(self.admission.draining))
        reg.gauge("repro_service_documents",
                  "Registered document collections.",
                  fn=lambda: len(self.database.names()))
        for name, cache in (("result", self.result_cache),
                            ("plan", self.plan_cache)):
            reg.gauge(f"repro_service_{name}_cache_size",
                      f"Entries in the {name} cache.", fn=cache.__len__)

        def _wal_bytes() -> int:
            store = self.database.durable_store
            return store.wal.size if store is not None else 0

        reg.gauge("repro_store_wal_bytes",
                  "Bytes in the store's log file (0 without a store).",
                  fn=_wal_bytes)
        reg.gauge("repro_service_slow_log_entries",
                  "Entries currently held by the slow-query log.",
                  fn=lambda: len(self.slow_log))
        from .resilience import STATE_CLOSED, STATE_HALF_OPEN, STATE_OPEN

        for state in (STATE_CLOSED, STATE_OPEN, STATE_HALF_OPEN):
            reg.gauge("repro_service_breaker_clients",
                      "Client circuit breakers by state.",
                      labels={"state": state},
                      fn=lambda s=state: self.breakers.state_counts()
                      .get(s, 0))
        reg.gauge("repro_service_queue_wait_p95_seconds",
                  "Observed p95 admission-to-execution wait "
                  "(0 while the estimator is cold).",
                  fn=lambda: self.queue_wait.p95() or 0.0)

    # -- graph registration ---------------------------------------------------

    def register(self, name: str,
                 collection: Union[GraphCollection, Graph]) -> None:
        """Register a graph/collection.

        With a durable store attached, the document is committed to the
        store's log *before* it becomes visible to queries: a
        registration that returned survives a crash."""
        if self.database.durable_store is not None:
            self.database.register_durable(name, collection)
        else:
            self.database.register(name, collection)

    def load(self, name: str, path, directed: bool = False) -> None:
        """Load and register a collection from a GraphQL file."""
        self.register(name, load_collection(path, directed=directed))

    def document_version(self, document: str) -> int:
        """The mutation counter of one document.

        The sum of the member graphs' mutation counters: bumped by any
        node/edge change.  Two *different* collections can share a sum,
        so the result cache pairs it with the document's registration
        number (:meth:`GraphDatabase.registration`).
        """
        return sum(graph.version for graph in self.database.doc(document))

    # -- the executor ---------------------------------------------------------

    def _ensure_executor(self):
        """The worker pool, started on first use."""
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.config.workers,
                    thread_name_prefix="repro-query",
                )
            return self._executor

    # -- submission -----------------------------------------------------------

    def submit(self, request: QueryRequest) -> "Future[QueryResponse]":
        """Admit and schedule one request; never blocks.

        The request runs the turn-away stages in order — validate,
        breaker, deadline shed, quota, unique in-flight id — and the first
        that refuses it ends it REJECTED or SHED.  A request that passes
        them all is counted admitted, once, and ends as a result-cache
        hit, an executed run, or a failed hand-off.  Every one of those
        endings goes through :meth:`_complete`, so the returned future
        resolves to a :class:`QueryResponse` in every case and
        ``submitted == admitted + rejected + shed`` holds by
        construction.
        """
        self.metrics.count("submitted")
        entry = _Inflight(request, tracer().start(
            "service.request", remote=request.trace_parent,
            request_id=request.request_id,
            client=request.client, document=request.document))
        with tracer().activate(entry.root):
            response = self._admit(entry)
            if response is None:
                response = self._start(entry)
            if response is not None:
                self._complete(entry, response)
        return entry.future

    def execute(self, query: PatternLike, **kwargs) -> QueryResponse:
        """Synchronous convenience wrapper around :meth:`submit`."""
        return self.submit(QueryRequest(query=query, **kwargs)).result()

    def _admit(self, entry: _Inflight) -> Optional[QueryResponse]:
        """Run the turn-away stages; the first refusal is the response.

        ``admitted`` is counted here, after the last stage that can turn
        the request away, and never taken back.
        """
        with trace_span("service.admission") as span:
            for stage in self._stages:
                refusal = stage(entry)
                if refusal is not None:
                    kind = "shed" if refusal.shed else "rejected"
                    span.annotate(**{kind: refusal.outcome.reason})
                    return refusal
        self.metrics.count("admitted")
        return None

    def _start(self, entry: _Inflight) -> Optional[QueryResponse]:
        """Serve an admitted request's result-cache hit on the spot, or
        hand it to the pool (None: a worker now owns its ending)."""
        request = entry.request
        entry.submitted_at = time.perf_counter()
        # serve result-cache hits synchronously: no worker, microseconds
        with trace_span("service.cache_probe") as probe:
            snapshot = self._snapshot(request)
            key = self._cache_key(request, snapshot)
            cached = None if key is None else self.result_cache.get(key)
            probe.annotate(hit=cached is not None)
        if cached is not None:
            answers, outcome = cached
            self.metrics.count("result_cache_hits")
            return _answer_reply(
                request, answers, outcome, snapshot, cache="hit",
                elapsed=time.perf_counter() - entry.submitted_at)
        entry.context = self.config.derive_context(
            timeout=request.timeout, max_steps=request.max_steps,
            max_memory=request.max_memory, token=entry.token)
        try:
            self._ensure_executor().submit(self._run_local, entry)
        except Exception as exc:  # the pool was shut down under us
            logger.warning("submit failed for %s: %s",
                           request.request_id, exc)
            return _reply(request, QueryOutcome(status=Outcome.CANCELLED,
                                                reason=REASON_DRAINING))
        return None

    # -- the turn-away stages, in order ---------------------------------------
    # Each lets the request through (None) or returns the REJECTED/SHED
    # response that ends it, having bumped exactly one of the
    # ``rejected`` / ``shed`` counters.

    def _rejection(self, request: QueryRequest, reason: str,
                   **detail: Any) -> QueryResponse:
        self.metrics.count("rejected")
        outcome = rejected_outcome(reason)
        outcome.detail.update(detail)
        return _reply(request, outcome)

    def _shedding(self, request: QueryRequest, kind: str, reason: str,
                  retry_after: Optional[float]) -> QueryResponse:
        self.metrics.record_shed(kind)
        return _reply(request, shed_outcome(reason), retry_after=retry_after)

    def _validate(self, entry: _Inflight) -> Optional[QueryResponse]:
        """Static analysis, through the request's one plan-cache lookup
        (serving validation now and execution later).

        An invalid query is rejected before the breaker, the quota or
        the pool ever see it.  Compiled patterns pass (their text was
        validated wherever it was compiled).
        """
        request = entry.request
        if not isinstance(request.query, str):
            return None
        entry.prepared, hit = self.plan_cache.prepare(request.query)
        self.metrics.count("plan_cache_hits" if hit else "plan_cache_misses")
        if not entry.prepared.errors:
            return None
        self.metrics.count("invalid_queries")
        return self._rejection(request, REASON_INVALID_QUERY,
                               diagnostics=list(entry.prepared.errors))

    def _check_breaker(self, entry: _Inflight) -> Optional[QueryResponse]:
        """Shed while the client's circuit breaker is open.  A HALF_OPEN
        pass makes this request the probe holder until it completes."""
        request = entry.request
        allowed, retry_after = self.breakers.allow(request.client,
                                                   holder=request)
        if allowed:
            return None
        return self._shedding(
            request, "breaker",
            f"circuit breaker open for client {request.client!r}",
            retry_after)

    def _check_deadline(self, entry: _Inflight) -> Optional[QueryResponse]:
        """Shed a request whose whole deadline is below the observed p95
        queue wait: it would expire in the queue, so starting it only
        wastes a worker.  The estimator stays cold (never sheds) until
        it has seen enough waits."""
        effective = self.config.tighten(entry.request.timeout,
                                        self.config.default_timeout)
        p95 = None if effective is None else self.queue_wait.p95()
        if p95 is None or effective >= p95:
            return None
        return self._shedding(
            entry.request, "deadline",
            f"deadline {effective:g}s is below the observed p95 queue "
            f"wait {p95:.3f}s", round(p95, 3))

    def _check_quota(self, entry: _Inflight) -> Optional[QueryResponse]:
        """Admission control: draining, the global bound, the client's
        quota.  Passing takes an admission slot."""
        reason = self.admission.try_admit(entry.request.client)
        if reason is not None:
            return self._rejection(entry.request, reason)
        entry.slot = True
        return None

    def _check_unique_id(self, entry: _Inflight) -> Optional[QueryResponse]:
        """Track the request by id; the id must be unique in flight.

        The id is the cancellation handle: a second insert would orphan
        the first request's token and make ``cancel()`` unreachable.
        """
        request = entry.request
        with self._lock:
            duplicate = request.request_id in self._in_flight
            if not duplicate:
                entry.admitted = True
                self._in_flight[request.request_id] = entry
        if duplicate:
            return self._rejection(request, REASON_DUPLICATE_ID)
        return None

    # -- the one ending -------------------------------------------------------

    def _complete(self, entry: _Inflight, response: QueryResponse) -> None:
        """End one request — turned away, cache hit, executed or a
        failed hand-off — exactly once.

        Frees the admission slot, records the outcome (and, when
        admitted, the latency), feeds the breaker, finishes the root
        span, offers an admitted request to the slow log, and resolves
        the future.
        """
        request, outcome = entry.request, response.outcome
        latency = None
        if entry.admitted:
            with self._lock:
                del self._in_flight[request.request_id]
            latency = time.perf_counter() - entry.submitted_at
        if entry.slot:
            self.admission.release(request.client)
        self.metrics.record_outcome(outcome.status, latency=latency)
        self._record_breaker(request, response)
        entry.root.annotate(status=outcome.status.value,
                            cache=response.cache, reason=outcome.reason)
        entry.root.finish()
        if latency is not None:
            self._record_slow(request, response, latency, entry.root)
        entry.future.set_result(response)

    def _record_breaker(self, request: QueryRequest,
                        response: QueryResponse) -> None:
        """Feed one finished request to its client's circuit breaker."""
        status = response.outcome.status
        if response.error is not None or status is Outcome.TIMED_OUT:
            self.breakers.record(request.client, failed=True)
        elif status in ANSWER_OUTCOMES:
            self.breakers.record(request.client, failed=False)
        else:
            # CANCELLED / REJECTED / SHED are neutral: not the query's
            # fault — but if this request holds the HALF_OPEN probe slot
            # it must give it back, or no probe ever resolves
            self.breakers.release_probe(request.client, holder=request)

    # -- execution ------------------------------------------------------------

    def _options_for(self, request: QueryRequest) -> MatchOptions:
        build = baseline_options if request.baseline else optimized_options
        return build(limit=self.config.tighten(
            request.limit, self.config.default_max_results))

    def _options_key(self, request: QueryRequest) -> Hashable:
        opts = self._options_for(request)
        # every knob that can change the rows a run produces must be part
        # of the key: the planner mode and answer cap, but also the
        # effective step/memory budgets — either can TRUNCATE a run, and
        # a budget-truncated partial answer must never be replayed to a
        # request with looser budgets
        return ("baseline" if request.baseline else "optimized",
                opts.limit, request.max_steps, request.max_memory)

    def _snapshot(self, request: QueryRequest) -> Optional[Tuple[int, int]]:
        """The requested document's ``(registration, version)`` now, or
        None for an unknown document.

        The registration number says which collection object is
        registered, the version sum how far that object has been
        mutated: two different collections whose versions happen to add
        up alike never share cache entries."""
        try:
            return (self.database.registration(request.document),
                    self.document_version(request.document))
        except KeyError:
            return None

    def _cache_key(self, request: QueryRequest,
                   snapshot: Optional[Tuple[int, int]]):
        """The cache key of a request at *snapshot*, or None when
        uncacheable."""
        if (snapshot is None or not request.use_cache
                or not isinstance(request.query, str)):
            return None
        return make_key(request.document, request.query,
                        self._options_key(request), snapshot)

    def _run_local(self, entry: _Inflight) -> None:
        """Worker-thread body: match, serialize, cache.

        ``entry.root`` is the request's trace span started in
        :meth:`submit`; activating it here re-parents this worker
        thread's spans under the submitting request, so concurrent
        requests never interleave.  A request whose deadline passed
        while it was queued (or while the hook held it) ends TIMED_OUT at
        the first ``context.check()`` of the run.
        """
        request = entry.request
        # the queue wait just ended: this sample is what deadline-aware
        # shedding compares incoming deadlines against
        self.queue_wait.observe(time.perf_counter() - entry.submitted_at)
        if self.execute_hook is not None:
            self.execute_hook(request)
        with tracer().activate(entry.root):
            with trace_span("service.execute"):
                context = entry.context
                assert context is not None  # set when _start dispatched
                # key the cache and the reply's version on the document
                # version *before* execution, so a mutation racing with
                # this query can never publish its results under (or
                # report) the post-mutation version
                snapshot = self._snapshot(request)
                key = self._cache_key(request, snapshot)
                answers = NO_ANSWERS
                error: Optional[str] = None
                try:
                    pattern = (request.query if entry.prepared is None
                               else entry.prepared.pattern)
                    answers = self.database.execute(
                        request.document, pattern,
                        self._options_for(request), context=context)
                    self.metrics.count("executed")
                except Exception as exc:
                    logger.exception("query %s failed", request.request_id)
                    error = str(exc)
                outcome = context.outcome()
                if (error is None and key is not None
                        and self.result_cache.admit(key, answers, outcome)):
                    self.metrics.count("result_cache_misses")
                response = _answer_reply(
                    request, answers, outcome, snapshot,
                    cache="miss" if key is not None else "bypass",
                    elapsed=time.perf_counter() - entry.submitted_at,
                    error=error)
            self._complete(entry, response)

    def _record_slow(self, request: QueryRequest, response: QueryResponse,
                     latency: float, root=None) -> None:
        """Offer one finished request to the slow-query log."""
        spans = (root.top_spans() if root is not None and root.enabled
                 else {})
        self.slow_log.record(SlowQueryEntry(
            request_id=request.request_id,
            client=request.client,
            document=request.document,
            query=(request.query if isinstance(request.query, str)
                   else repr(request.query)),
            elapsed=latency,
            status=response.outcome.status.value,
            reason=response.outcome.reason or None,
            cache=response.cache,
            degradation=list(response.degradation),
            spans=spans,
        ))

    # -- lifecycle ------------------------------------------------------------

    def cancel(self, request_id: str,
               reason: str = "cancelled by client") -> bool:
        """Cancel one in-flight request by id (cooperative).

        Returns False when the id is unknown — already finished, never
        admitted, or mistyped.
        """
        with self._lock:
            entry = self._in_flight.get(request_id)
        if entry is None:
            return False
        entry.token.cancel(reason)
        self.metrics.count("cancelled_requests")
        return True

    def cancel_all(self, reason: str = "service shutdown") -> int:
        """Cancel every in-flight request; returns how many were signalled."""
        with self._lock:
            entries = list(self._in_flight.values())
        for entry in entries:
            entry.token.cancel(reason)
        return len(entries)

    def metrics_text(self) -> str:
        """The Prometheus text exposition of this service's registry."""
        return render_prometheus(self.registry)

    def explain(
        self,
        query_text: str,
        document: str = "data",
        analyze: bool = False,
        baseline: bool = False,
        limit: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """EXPLAIN [ANALYZE] one query against a registered document.

        Bypasses admission/caching — this is an operator tool, not the
        serving path.  ``analyze=True`` runs the query for real under a
        governance context derived from the service defaults.
        """
        from ..obs.explain import explain_query  # avoids an import cycle

        request = QueryRequest(query=query_text, document=document,
                               baseline=baseline, limit=limit)
        context = (self.config.derive_context(timeout=timeout)
                   if analyze else None)
        return explain_query(
            self.database, document, query_text, self._options_for(request),
            analyze=analyze, context=context)

    def stats(self) -> Dict[str, Any]:
        """The ``stats`` response: metrics + cache + admission state."""
        snapshot = self.metrics.snapshot()
        snapshot["in_flight"] = self.admission.in_flight
        snapshot["draining"] = self.admission.draining
        snapshot["documents"] = self.database.names()
        snapshot["slow_queries"] = self.slow_log.snapshot()
        # merge the LRU-internal counters without letting their
        # "hits"/"misses" (bumped by every key probe, including the
        # pre-execution lookups) clobber the request-level ones
        for section, cache in (("result_cache", self.result_cache),
                               ("plan_cache", self.plan_cache)):
            lru = cache.stats()
            snapshot[section]["size"] = lru["size"]
            snapshot[section]["capacity"] = lru["capacity"]
            snapshot[section]["evictions"] = lru["evictions"]
            snapshot[section]["lru"] = {"hits": lru["hits"],
                                        "misses": lru["misses"]}
        snapshot["resilience"] = {
            "breakers": self.breakers.snapshot(),
            "breaker_states": self.breakers.state_counts(),
            "queue_wait_p95": self.queue_wait.p95(),
            "queue_wait_samples": len(self.queue_wait),
        }
        snapshot["config"] = {
            "workers": self.config.workers,
            "queue_depth": self.config.queue_depth,
            "per_client": self.config.per_client,
            "default_timeout": self.config.default_timeout,
            "breaker_threshold": self.breakers.threshold,
        }
        store = self.database.durable_store
        if store is not None:
            snapshot["durability"] = {
                "store_path": self.config.store_path,
                "fsync": self.config.fsync,
                "wal_bytes": store.wal.size,
                "checkpoints": store.checkpoints,
                "recovery": (self.recovery.to_dict()
                             if self.recovery is not None else None),
            }
        return snapshot

    def note_retry(self, client: str) -> None:
        """Account one retried arrival (the wire layer calls this when a
        request carries ``attempt > 1``) — the server-visible view of
        client retry activity."""
        self.metrics.note_client_retry(client)

    def health(self) -> Dict[str, Any]:
        """The liveness view: drain state, recovery, breakers, shedding.

        Always answerable (health is about *reporting* state, readiness
        is about *accepting* work — see :meth:`ready`).
        """
        draining = self.admission.draining or self._closed
        return {
            "status": "draining" if draining else "ok",
            "draining": draining,
            "in_flight": self.admission.in_flight,
            "documents": len(self.database.names()),
            "breakers": self.breakers.state_counts(),
            "shed": self.metrics.shed_snapshot(),
            "recovery": (self.recovery.to_dict()
                         if self.recovery is not None else None),
        }

    def ready(self) -> Tuple[bool, str]:
        """Whether the service should receive new traffic, plus why not.

        Not ready while draining/closed or before any document is
        registered; a durable store that needed recovery is ready as
        soon as the (synchronous, startup-time) recovery finished.
        """
        if self._closed:
            return False, "service closed"
        if self.admission.draining:
            return False, "draining"
        if not self.database.names():
            return False, "no documents registered"
        return True, "ok"

    def drain(self, timeout: float = DRAIN_TIMEOUT) -> bool:
        """Stop admitting, wait for in-flight work, cancel stragglers.

        Returns True when everything finished inside the deadline, False
        when stragglers had to be cancelled.
        """
        self.admission.start_draining()
        deadline = time.monotonic() + timeout
        clean = True
        while True:
            with self._lock:
                pending = [entry.future
                           for entry in self._in_flight.values()]
            if not pending:
                break
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                clean = False
                self.cancel_all("drain deadline expired")
                break
            try:
                pending[0].result(timeout=min(remaining, 0.1))
            except Exception:
                pass  # response futures never raise; timeout just loops
        return clean

    def shutdown(self, timeout: float = DRAIN_TIMEOUT) -> Dict[str, Any]:
        """Drain, stop the pool, and return the final stats snapshot."""
        with self._lock:
            if self._closed:
                return self.stats()
            self._closed = True
        self.drain(timeout)
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        stats = self.stats()  # snapshot durability before the store closes
        try:
            self.database.close_store()
        except Exception:
            logger.exception("durable store close failed")
        logger.info("service shutdown: %s", self.metrics.summary())
        return stats

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
