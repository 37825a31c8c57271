"""Scatter-gather query routing across the shards of a cluster.

The :class:`ClusterCoordinator` is a *client-side* fan-out: it owns no
graphs, only a :class:`~repro.cluster.shardmap.ShardMap` and one wire
endpoint per shard.  A query is submitted to every shard that owns part
of the document: each slice's leg runs on a thread of its own and
returns that slice's :class:`ShardAnswer`, rows included, and the
coordinator merges exactly one answer per slice under one global limit
and one global deadline.  A replica attempt is one ``client.query`` call
whose budget, connect included, is its share of that deadline and its
only one, so every leg ends by the deadline and the fan-out waits for
all of them.

Failure handling reuses the service's resilience vocabulary:

* a per-**replica** :class:`~repro.service.resilience.CircuitBreaker`
  (via :class:`~repro.service.resilience.BreakerRegistry`) stops the
  coordinator from burning its deadline on a process that has been
  failing — an open breaker skips that replica instantly and the
  cooldown probe re-tests it;
* **replica failover**: with ``shard_map.replication_factor >= 2`` each
  slice has an ordered preference list of replicas; the coordinator
  tries them in order, failing over on connect failure, breaker-open,
  per-attempt timeout, or a non-mergeable outcome (shed/timed out).
  The replica that served each slice is named in the accounting
  (``replica_used``) and ``PARTIAL`` is produced only when an *entire*
  preference list is exhausted;
* a **divergence check**: every mergeable answer carries the snapshot
  version of the document it ran over, and the coordinator compares the
  versions the replicas of one slice report — a mismatch is counted
  (``version_divergence``) and logged, never silently merged over;
* **partial results**: shards that answered merge, shards that did not
  are named, with an error, in the ``PARTIAL`` outcome's
  ``detail["shards"]``; one answer per slice makes the accounting
  invariant ``submitted == merged + failed`` hold by construction.

The coordinator keeps no answers of its own: every fan-out reaches the
shards, whose version-keyed result caches are the only replay, so a
write on a shard is seen by the next query.  The shard map is fixed
for the cluster's life, so every fan-out covers exactly the slices the
shards were launched with.
"""

from __future__ import annotations

import logging
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs.trace import span, tracer
from ..runtime import (ANSWER_OUTCOMES, Outcome, QueryOutcome,
                       partial_outcome, rejected_outcome)
from ..service.admission import REASON_INVALID_QUERY
from ..service.cache import PLAN_CACHE_SIZE, PreparedQueryCache
from ..service.client import ServiceClient
from ..service.protocol import AnswerRows
from ..service.resilience import BreakerRegistry
from .shardmap import ShardMap, slice_document

logger = logging.getLogger(__name__)

#: consecutive failed attempts that open a replica's breaker, and the
#: seconds it stays open before one probe may re-test the replica
BREAKER_THRESHOLD = 4
BREAKER_COOLDOWN = 5.0


@dataclass
class ShardAnswer:
    """One shard's contribution to a fan-out."""

    shard: str
    ok: bool
    #: this slice's rows, every block tagged with its ``"shard"``
    results: AnswerRows = field(default_factory=AnswerRows, repr=False)
    outcome: Optional[QueryOutcome] = None
    error: Optional[str] = None
    elapsed: float = 0.0
    #: the replica that produced the answer (None when none did)
    replica: Optional[str] = None
    #: replicas tried; attempts - 1 is the failover count
    attempts: int = 0
    #: the snapshot version the serving replica reported, if any
    version: Optional[int] = None

    @property
    def rows(self) -> int:
        return len(self.results)

    def accounting(self) -> Dict[str, Any]:
        """The JSON-ready per-shard entry of ``detail["shards"]``."""
        entry: Dict[str, Any] = {
            "merged": self.ok,
            "rows": self.rows,
            "elapsed": round(self.elapsed, 6),
        }
        if self.outcome is not None:
            entry["status"] = self.outcome.status.value
        if self.error:
            entry["error"] = self.error
        if self.replica is not None:
            entry["replica_used"] = self.replica
        if self.attempts > 1:
            entry["failovers"] = self.attempts - 1
        if self.version is not None:
            entry["version"] = self.version
        return entry


@dataclass
class ClusterReply:
    """A merged scatter-gather answer.

    ``results`` is the row view over the shards' blocks in target
    order, each block naming its source shard under ``"shard"``;
    ``outcome.detail["shards"]`` holds the per-shard accounting whatever
    the terminal status, so tooling reads one shape for COMPLETE,
    TRUNCATED and PARTIAL alike.
    """

    results: AnswerRows = field(default_factory=AnswerRows)
    outcome: QueryOutcome = field(default_factory=QueryOutcome)
    answers: List[ShardAnswer] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def submitted(self) -> int:
        """Shards the query was fanned out to."""
        return len(self.answers)

    @property
    def merged(self) -> int:
        """Shards whose rows are part of ``results``."""
        return sum(1 for a in self.answers if a.ok)

    @property
    def failed(self) -> int:
        """Shards that contributed nothing (down, shed, timed out…)."""
        return sum(1 for a in self.answers if not a.ok)

    @property
    def partial(self) -> bool:
        return self.outcome.status is Outcome.PARTIAL

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.error is None,
            "blocks": self.results.to_wire(),
            "outcome": self.outcome.to_dict(),
            **({"error": self.error} if self.error else {}),
        }


@dataclass(frozen=True)
class _Request:
    """What every leg of one fan-out sends, its deadline and the span
    the legs hang under (a replicated leg retargets the document)."""

    text: str
    document: str
    #: the remaining ``ServiceClient.query`` keywords, the same per leg
    options: Dict[str, Any]
    deadline: float
    span: Any


class ClusterCoordinator:
    """Fans queries out to shards and merges their answers.

    *endpoints* maps shard id -> ``(host, port)`` and must cover every
    shard in *shard_map*.  When a plain dict is passed it is kept **by
    reference**, so a supervisor that restarts a shard on a fresh port
    can update the mapping in place and the next fan-out dials the new
    endpoint.  *client_factory* is the seam tests use to substitute
    in-process fakes for TCP clients; it is called like
    :class:`~repro.service.client.ServiceClient` (the default) and must
    return an object with its ``query`` + ``close`` surface whose
    ``query`` ends within the *timeout* it was built with, connect and
    the whole reply included, as ``ServiceClient``'s does (a deadline
    for the call, not a socket timeout per read): nothing else ends an
    attempt.

    Each replica attempt gets an even share of the remaining deadline
    across the replicas not yet tried, so the last replica of a
    preference list always gets a turn.
    """

    def __init__(
        self,
        shard_map: ShardMap,
        endpoints: Dict[str, Tuple[str, int]],
        *,
        timeout: float = 30.0,
        client_factory: Callable[..., Any] = ServiceClient,
    ) -> None:
        missing = [s for s in shard_map.shards if s not in endpoints]
        if missing:
            raise ValueError(f"no endpoint for shard(s): {missing}")
        self.shard_map = shard_map
        self.endpoints = (endpoints if isinstance(endpoints, dict)
                          else dict(endpoints))
        self.timeout = timeout
        self.client_factory = client_factory
        self.breakers = BreakerRegistry(threshold=BREAKER_THRESHOLD,
                                        cooldown=BREAKER_COOLDOWN)
        #: query text -> prepared query, so repeated fan-outs of the
        #: same (valid or invalid) text skip re-analysis; it holds
        #: validation verdicts, never answers
        self.plan_cache = PreparedQueryCache(PLAN_CACHE_SIZE)
        self._counters: Dict[str, int] = {}
        self._counter_lock = threading.Lock()
        #: last snapshot version each replica reported per slice, the
        #: read-side divergence check's memory
        self._slice_versions: Dict[str, Dict[str, int]] = {}

    # -- bookkeeping ----------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        with self._counter_lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def stats(self) -> Dict[str, Any]:
        """Coordinator counters, plan-cache stats and breaker states."""
        with self._counter_lock:
            counters = dict(self._counters)
            slice_versions = {s: dict(v)
                              for s, v in self._slice_versions.items()}
        return {
            "counters": counters,
            "plan_cache": self.plan_cache.stats(),
            "breakers": self.breakers.state_counts(),
            "breaker_detail": self.breakers.snapshot(),
            "replication_factor": self.shard_map.replication_factor,
            "shards": list(self.shard_map.shards),
            "slice_versions": slice_versions,
        }

    def _observe_version(self, shard: str, replica: str,
                         version: int) -> None:
        """Record one replica's reported snapshot version for a slice
        and count a divergence when its peers disagree."""
        with self._counter_lock:
            seen = self._slice_versions.setdefault(shard, {})
            mismatched = {r: v for r, v in seen.items()
                          if r != replica and v != version}
            seen[replica] = version
            if mismatched:
                self._counters["version_divergence"] = \
                    self._counters.get("version_divergence", 0) + 1
        if mismatched:
            logger.warning(
                "slice %s: replica %s reports snapshot version %s but "
                "peer(s) reported %s", shard, replica, version, mismatched)

    # -- the fan-out ----------------------------------------------------------

    def query(
        self,
        query_text: str,
        document: str = "data",
        *,
        limit: Optional[int] = None,
        timeout: Optional[float] = None,
        max_steps: Optional[int] = None,
        baseline: bool = False,
        use_cache: bool = True,
        shard_ids: Optional[List[str]] = None,
    ) -> ClusterReply:
        """Run one pattern/FLWR query across the cluster.

        *shard_ids* restricts the fan-out (a routed single-graph lookup
        uses ``[shard_map.owner(graph_id)]``); the default is every
        shard — a whole-collection match may find answers anywhere.
        ``use_cache=False`` sends ``no_cache`` to the shards, bypassing
        their result caches (benchmarks measure execution, not replay).
        """
        # validate once at the coordinator: an invalid query would be
        # rejected identically by every shard, so fanning it out only
        # multiplies the same refusal by the shard count
        errors = self.plan_cache.prepare(query_text)[0].errors
        if errors:
            self._count("invalid_queries")
            outcome = rejected_outcome(REASON_INVALID_QUERY)
            outcome.detail["diagnostics"] = list(errors)
            return ClusterReply(outcome=outcome)
        budget = self.timeout if timeout is None else timeout
        targets = list(self.shard_map.shards if shard_ids is None
                       else shard_ids)
        self._count("fanouts")
        deadline = time.monotonic() + budget
        with span("cluster.query", document=document,
                  shards=len(targets)) as root:
            request = _Request(query_text, document, dict(
                limit=limit, max_steps=max_steps, baseline=baseline,
                no_cache=not use_cache), deadline, root)
            # no attempt deadline passes this one, so neither does a leg
            with ThreadPoolExecutor(max_workers=max(1, len(targets)),
                                    thread_name_prefix="fanout") as pool:
                answers = list(pool.map(self._query_shard, targets,
                                        [request] * len(targets)))
        return self._merge(answers, limit)

    def _query_shard(self, shard: str, request: _Request) -> ShardAnswer:
        """One slice's fan-out leg: walk the preference list in order.

        Each replica attempt gets a carved per-attempt budget; connect
        failures, open breakers, attempt timeouts and non-mergeable
        outcomes fail over to the next replica.  The slice only counts
        as failed when the whole list is exhausted.
        """
        started = time.monotonic()
        answer = ShardAnswer(shard=shard, ok=False)
        replicated = self.shard_map.replication_factor > 1
        prefs = (self.shard_map.preference_list(shard) if replicated
                 else [shard])
        doc = (slice_document(request.document, shard) if replicated
               else request.document)
        errors: List[str] = []

        def describe(replica: str, message: str) -> str:
            # the answer is keyed by the slice's primary already: only
            # failover replicas need naming in error strings
            return message if replica == shard else f"{replica}: {message}"

        child = tracer().start("cluster.shard", parent=request.span,
                               shard=shard)
        try:
            for position, replica in enumerate(prefs):
                remaining = request.deadline - time.monotonic()
                if remaining <= 0:
                    errors.append("cluster deadline exhausted")
                    break
                if position > 0:
                    self._count("failovers")
                allowed, retry_after = self.breakers.allow(
                    replica, holder=answer)
                if not allowed:
                    self._count("breaker_skips")
                    errors.append(describe(
                        replica, "breaker open"
                        + (f" (retry in {retry_after:.2f}s)"
                           if retry_after is not None else "")))
                    continue
                endpoint = self.endpoints.get(replica)
                if endpoint is None:
                    self.breakers.release_probe(replica, answer)
                    errors.append(describe(replica, "no endpoint"))
                    continue
                answer.attempts = position + 1
                # leave each not-yet-tried replica a fair share of the
                # deadline; the last one gets everything left
                reply, error = self._attempt_replica(
                    replica, endpoint, request, doc, child,
                    min(request.deadline, time.monotonic()
                        + remaining / (len(prefs) - position)))
                # a decoded answer is the only success; a
                # refusal/interruption/app error counts against the
                # replica just as it did pre-replication
                self.breakers.record(
                    replica,
                    failed=(reply is None or reply.error is not None
                            or reply.outcome.status not in ANSWER_OUTCOMES))
                if reply is None:
                    errors.append(describe(replica, error))
                    continue
                answer.replica = replica
                answer.outcome = reply.outcome
                if reply.error is not None:
                    # an application error (bad query, internal bug) is
                    # deterministic: replicas would repeat it, so it is
                    # definitive rather than failover-eligible
                    answer.error = describe(replica, reply.error)
                    break
                if reply.outcome.status in ANSWER_OUTCOMES:
                    versions = getattr(reply, "versions", None) or {}
                    version = versions.get(doc)
                    if version is not None:
                        answer.version = version
                        self._observe_version(shard, replica, version)
                    answer.results = reply.results.tagged(shard)
                    answer.ok = True
                    break
                # the replica answered with a refusal or interruption
                # (SHED, TIMED_OUT, ...): another replica may do better
                errors.append(describe(
                    replica, reply.outcome.reason
                    or reply.outcome.status.value))
            if not answer.ok and answer.error is None:
                answer.error = ("; ".join(errors) if errors
                                else "no replica answered")
        except Exception as exc:
            # a malformed reply fails this slice, not the whole fan-out
            logger.exception("fan-out leg for slice %s failed", shard)
            answer.error = f"fan-out leg failed: {exc}"
        finally:
            answer.elapsed = time.monotonic() - started
            child.annotate(merged=answer.ok, rows=answer.rows,
                           attempts=answer.attempts,
                           **({"replica": answer.replica}
                              if answer.replica else {}),
                           **({"error": answer.error}
                              if answer.error else {}))
            child.finish()
        return answer

    def _attempt_replica(self, replica: str, endpoint: Tuple[str, int],
                         request: _Request, document: str, child: Any,
                         attempt_deadline: float
                         ) -> Tuple[Optional[Any], Optional[str]]:
        """One replica's exchange, over one connection, on the leg's
        thread.

        Returns ``(reply, None)`` on any decoded reply and ``(None,
        error)`` on connect failure / attempt timeout.  The client's
        budget is the attempt's, connect included, so the exchange ends
        by the attempt deadline: a replica that stalls past its share
        fails over.
        """
        budget = attempt_deadline - time.monotonic()
        if budget <= 0:
            return None, "attempt budget exhausted"
        host, port = endpoint
        try:
            with tracer().activate(child), closing(self.client_factory(
                    host, port, timeout=budget,
                    client_name=f"coordinator/{replica}")) as client:
                return client.query(
                    request.text, document=document,
                    request_id=f"fanout-{uuid.uuid4().hex}",
                    timeout=budget, **request.options), None
        except Exception as exc:
            return None, str(exc) or type(exc).__name__

    # -- the merge ------------------------------------------------------------

    def _merge(self, answers: List[ShardAnswer],
               limit: Optional[int]) -> ClusterReply:
        # one answer per target, in target order: a deterministic merge
        rows = AnswerRows(block for a in answers if a.ok
                          for block in a.results.blocks)
        truncated = any(a.ok and a.outcome is not None
                        and a.outcome.status is Outcome.TRUNCATED
                        for a in answers)
        if limit is not None and len(rows) > limit:
            rows = rows.head(limit)
            truncated = True
        merged = sum(1 for a in answers if a.ok)
        failed = len(answers) - merged
        detail = {
            "submitted": len(answers),
            "merged": merged,
            "failed": failed,
            "replication_factor": self.shard_map.replication_factor,
            "shards": {a.shard: a.accounting() for a in answers},
        }
        if failed == 0:
            self._count("complete")
            outcome = QueryOutcome(
                status=Outcome.TRUNCATED if truncated else Outcome.COMPLETE,
                reason=("global limit reached across shards"
                        if truncated else ""), detail=detail)
        else:
            self._count("partials")
            outcome = partial_outcome(
                f"{failed}/{len(answers)} shard(s) did not answer: "
                + ", ".join(sorted(a.shard for a in answers if not a.ok)),
                detail=detail)
        outcome.steps = sum(a.outcome.steps for a in answers
                            if a.outcome is not None)
        outcome.results = len(rows)
        return ClusterReply(
            results=rows, outcome=outcome, answers=answers,
            error=("every shard failed; no rows merged"
                   if failed and not merged else None))
