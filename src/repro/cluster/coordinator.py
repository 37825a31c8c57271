"""Scatter-gather query routing across the shards of a cluster.

The :class:`ClusterCoordinator` is a *client-side* fan-out: it owns no
graphs, only a :class:`~repro.cluster.shardmap.ShardMap` and one wire
endpoint per shard.  A query is submitted to every shard that owns part
of the document, the per-shard answers stream back over independent
connections, and the coordinator merges them under one global limit and
one global deadline.

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
* a **hedge**: when a replica has not answered after ``hedge_after``
  seconds, an identical request (same idempotency key) is raced on a
  second connection and the first answer wins; the losing request is
  sent a ``cancel`` wire op so it stops burning shard worker capacity;
* a **divergence check**: every mergeable answer carries the snapshot
  version of the document it ran over, and the coordinator compares the
  versions the replicas of one slice report — a mismatch is counted
  (``version_divergence``) and logged, never silently merged over;
* **partial results**: shards that answered merge, shards that did not
  are named in the ``PARTIAL`` outcome's ``detail["shards"]``, and the
  accounting invariant ``submitted == merged + failed`` always holds.

Merged results are cached per target set; explicit
:meth:`ClusterCoordinator.move` invalidates exactly the entries whose
shards were touched, and a map-version change the coordinator did not
perform itself flushes the cache wholesale (safe over exact).
"""

from __future__ import annotations

import logging
import threading
import time
import uuid
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs.trace import span, tracer
from ..runtime import Outcome, QueryOutcome, partial_outcome, rejected_outcome
from ..service.admission import REASON_INVALID_QUERY
from ..service.cache import PLAN_CACHE_SIZE, LRUCache, PreparedQueryCache
from ..service.client import ServiceClient
from ..service.resilience import BreakerRegistry
from .shardmap import ShardMap, ShardMove, slice_document

logger = logging.getLogger(__name__)

#: shard terminal states whose rows are complete for that shard
_MERGEABLE = (Outcome.COMPLETE, Outcome.TRUNCATED)


@dataclass
class ShardAnswer:
    """One shard's contribution to a fan-out."""

    shard: str
    ok: bool
    rows: int = 0
    outcome: Optional[QueryOutcome] = None
    error: Optional[str] = None
    elapsed: float = 0.0
    hedged: bool = False
    hedge_won: bool = False
    #: the replica that produced the answer (None when none did)
    replica: Optional[str] = None
    #: replicas tried; attempts - 1 is the failover count
    attempts: int = 0
    #: the snapshot version the serving replica reported, if any
    version: Optional[int] = None

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
        if self.hedged:
            entry["hedged"] = True
        if self.hedge_won:
            entry["hedge_won"] = True
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

    ``results`` rows carry their source shard under ``"shard"``;
    ``outcome.detail["shards"]`` holds the per-shard accounting whatever
    the terminal status, so tooling reads one shape for COMPLETE,
    TRUNCATED and PARTIAL alike.
    """

    results: List[Dict[str, Any]] = field(default_factory=list)
    outcome: QueryOutcome = field(default_factory=QueryOutcome)
    answers: List[ShardAnswer] = field(default_factory=list)
    cache: str = "miss"
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
            "results": list(self.results),
            "outcome": self.outcome.to_dict(),
            "cache": self.cache,
            **({"error": self.error} if self.error else {}),
        }


def _default_client_factory(host: str, port: int,
                            timeout: Optional[float],
                            client_name: str) -> ServiceClient:
    return ServiceClient(host, port, timeout=timeout,
                         client_name=client_name)


class ClusterCoordinator:
    """Fans queries out to shards and merges their answers.

    *endpoints* maps shard id -> ``(host, port)`` and must cover every
    shard in *shard_map*.  When a plain dict is passed it is kept **by
    reference**, so a supervisor that restarts a shard on a fresh port
    can update the mapping in place and the next fan-out dials the new
    endpoint.  *client_factory* is the seam tests use to substitute
    in-process fakes for TCP clients; it receives
    ``(host, port, timeout, client_name)`` and must return an object
    with the :class:`~repro.service.client.ServiceClient` context
    manager + ``query`` surface.

    ``hedge_after=None`` disables hedging; ``breaker_threshold=0``
    disables the per-replica breakers.  ``attempt_timeout`` caps each
    replica attempt (the default carves the remaining deadline evenly
    across the replicas not yet tried, so the last replica of a
    preference list always gets a turn).
    """

    def __init__(
        self,
        shard_map: ShardMap,
        endpoints: Dict[str, Tuple[str, int]],
        *,
        timeout: float = 30.0,
        hedge_after: Optional[float] = None,
        attempt_timeout: Optional[float] = None,
        breaker_threshold: int = 4,
        breaker_cooldown: float = 5.0,
        result_cache_size: int = 128,
        client_name: str = "coordinator",
        client_factory: Callable[..., Any] = _default_client_factory,
    ) -> None:
        missing = [s for s in shard_map.shards if s not in endpoints]
        if missing:
            raise ValueError(f"no endpoint for shard(s): {missing}")
        self.shard_map = shard_map
        self.endpoints = (endpoints if isinstance(endpoints, dict)
                          else dict(endpoints))
        self.timeout = timeout
        self.hedge_after = hedge_after
        self.attempt_timeout = attempt_timeout
        self.client_name = client_name
        self.client_factory = client_factory
        self.breakers = (BreakerRegistry(threshold=breaker_threshold,
                                         cooldown=breaker_cooldown)
                         if breaker_threshold > 0 else None)
        self.result_cache = LRUCache(result_cache_size)
        #: query text -> prepared query, so repeated fan-outs of the
        #: same (valid or invalid) text skip re-analysis; sized apart
        #: from the result cache, which callers disable to observe
        #: every fan-out
        self.plan_cache = PreparedQueryCache(PLAN_CACHE_SIZE)
        self._counters: Dict[str, int] = {}
        self._counter_lock = threading.Lock()
        #: last snapshot version each replica reported per slice, the
        #: read-side divergence check's memory
        self._slice_versions: Dict[str, Dict[str, int]] = {}
        #: the map version whose cache entries are exactly maintained;
        #: an out-of-band bump flushes the cache wholesale
        self._map_version_seen = shard_map.version

    # -- bookkeeping ----------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        with self._counter_lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def stats(self) -> Dict[str, Any]:
        """Coordinator counters, cache stats and breaker states."""
        with self._counter_lock:
            counters = dict(self._counters)
            slice_versions = {s: dict(v)
                              for s, v in self._slice_versions.items()}
        return {
            "counters": counters,
            "result_cache": self.result_cache.stats(),
            "plan_cache": self.plan_cache.stats(),
            "breakers": (self.breakers.state_counts()
                         if self.breakers is not None else {}),
            "breaker_detail": (self.breakers.snapshot()
                               if self.breakers is not None else {}),
            "map_version": self.shard_map.version,
            "replication_factor": self.shard_map.replication_factor,
            "shards": self.shard_map.shards,
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

    # -- placement changes ----------------------------------------------------

    def move(self, graph_id: str, shard: str) -> List[ShardMove]:
        """Pin a graph to a shard and drop the cache entries the move
        made stale (the caller transfers the data itself)."""
        moves = self.shard_map.move(graph_id, shard)
        if moves:
            self.invalidate_shards({m.src for m in moves if m.src}
                                   | {m.dst for m in moves})
        # the bump (if any) is now exactly accounted for: entries from
        # untouched shards stay valid
        self._map_version_seen = self.shard_map.version
        return moves

    def invalidate_shards(self, shard_ids) -> int:
        """Drop cached merges that involved any of *shard_ids*.

        Replication widens "involved": an entry targeting slice ``s``
        also depends on every replica in ``s``'s preference list, so a
        move touching a replica drops it too.
        """
        doomed = set(shard_ids)

        def affected(key) -> bool:
            for target in key[-1]:
                if target in doomed:
                    return True
                if self.shard_map.replication_factor > 1 and \
                        doomed & set(self.shard_map.preference_list(target)):
                    return True
            return False

        dropped = self.result_cache.invalidate(affected)
        self._count("cache_invalidated", dropped)
        return dropped

    def _check_map_version(self) -> None:
        """Flush the cache after an out-of-band map change.

        Mutations routed through :meth:`move` invalidate exactly the
        entries they touched; a version bump this coordinator did not
        perform (an operator editing the shared map) has no move list,
        so every entry is suspect and the whole cache is dropped.
        """
        version = self.shard_map.version
        if version != self._map_version_seen:
            dropped = self.result_cache.invalidate()
            self._count("cache_invalidated", dropped)
            self._map_version_seen = version

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
        use_shard_cache: bool = True,
        shard_ids: Optional[List[str]] = None,
    ) -> ClusterReply:
        """Run one pattern/FLWR query across the cluster.

        *shard_ids* restricts the fan-out (a routed single-graph lookup
        uses ``[shard_map.owner(graph_id)]``); the default is every
        shard — a whole-collection match may find answers anywhere.
        *use_cache* governs the coordinator's merged-result cache,
        *use_shard_cache* the shards' own result caches (benchmarks
        disable both to measure execution, not replay).
        """
        # validate once at the coordinator: an invalid query would be
        # rejected identically by every shard, so fanning it out only
        # multiplies the same refusal by the shard count
        errors = self.plan_cache.prepare(query_text)[0].errors
        if errors:
            self._count("invalid_queries")
            outcome = rejected_outcome(REASON_INVALID_QUERY)
            outcome.detail["diagnostics"] = list(errors)
            return ClusterReply(outcome=outcome, cache="bypass")
        budget = self.timeout if timeout is None else timeout
        targets = list(shard_ids) if shard_ids is not None \
            else self.shard_map.shards
        cache_key = None
        if use_cache and use_shard_cache and max_steps is None:
            self._check_map_version()
            cache_key = (document, query_text,
                         limit, baseline, tuple(sorted(targets)))
            cached = self.result_cache.get(cache_key)
            if cached is not None:
                self._count("cache_hits")
                return ClusterReply(results=list(cached.results),
                                    outcome=cached.outcome,
                                    answers=list(cached.answers),
                                    cache="hit", error=cached.error)
        self._count("fanouts")
        deadline = time.monotonic() + budget
        answers: List[Optional[ShardAnswer]] = [None] * len(targets)
        rows_by_shard: Dict[str, List[Dict[str, Any]]] = {}
        rows_lock = threading.Lock()
        with span("cluster.query", document=document,
                  shards=len(targets)) as root:
            workers = []
            for index, shard in enumerate(targets):
                worker = threading.Thread(
                    target=self._query_shard,
                    args=(shard, index, answers, rows_by_shard, rows_lock,
                          root, query_text, document, limit, max_steps,
                          baseline, use_shard_cache, deadline),
                    name=f"fanout-{shard}", daemon=True)
                workers.append(worker)
                worker.start()
            for worker in workers:
                worker.join(max(0.0, deadline - time.monotonic()) + 0.25)
        with rows_lock:
            # freeze both sides: a worker that outlived the deadline may
            # still be mutating its answer, and the merge must stay
            # internally consistent (submitted == merged + failed)
            row_snapshot = {s: list(r) for s, r in rows_by_shard.items()}
            frozen = [replace(a) if a is not None else None
                      for a in answers]
        reply = self._merge(targets, frozen, row_snapshot, limit)
        if cache_key is not None and reply.error is None \
                and not reply.partial:
            # only full merges are worth replaying; a PARTIAL answer
            # must retry the failed shards, not be served from cache
            self.result_cache.put(cache_key, reply)
        return reply

    def _query_shard(self, shard, index, answers, rows_by_shard, rows_lock,
                     parent_span, query_text, document, limit, max_steps,
                     baseline, use_shard_cache, deadline) -> None:
        """One slice's fan-out leg: walk the preference list in order.

        Each replica attempt gets a carved per-attempt budget; connect
        failures, open breakers, attempt timeouts and non-mergeable
        outcomes fail over to the next replica.  The slice only counts
        as failed when the whole list is exhausted.
        """
        started = time.monotonic()
        answer = ShardAnswer(shard=shard, ok=False)
        answers[index] = answer
        replicated = self.shard_map.replication_factor > 1
        prefs = (self.shard_map.preference_list(shard) if replicated
                 else [shard])
        doc = slice_document(document, shard) if replicated else document
        errors: List[str] = []

        def describe(replica: str, message: str) -> str:
            # the answer is keyed by the slice's primary already: only
            # failover replicas need naming in error strings
            return message if replica == shard else f"{replica}: {message}"

        child = tracer().start("cluster.shard", parent=parent_span,
                               shard=shard)
        try:
            for position, replica in enumerate(prefs):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    errors.append("cluster deadline exhausted")
                    break
                if position > 0:
                    self._count("failovers")
                admitted = False
                if self.breakers is not None:
                    allowed, retry_after = self.breakers.allow(
                        replica, holder=answer)
                    if not allowed:
                        self._count("breaker_skips")
                        errors.append(describe(
                            replica, "breaker open"
                            + (f" (retry in {retry_after:.2f}s)"
                               if retry_after is not None else "")))
                        continue
                    admitted = True
                endpoint = self.endpoints.get(replica)
                if endpoint is None:
                    if admitted:
                        self.breakers.release_probe(replica, answer)
                    errors.append(describe(replica, "no endpoint"))
                    continue
                # leave each not-yet-tried replica a fair share of the
                # deadline so the last one always gets a turn
                budget = remaining / (len(prefs) - position)
                if self.attempt_timeout is not None:
                    budget = min(budget, self.attempt_timeout)
                if position == len(prefs) - 1:
                    budget = remaining  # the last hope gets everything
                answer.attempts = position + 1
                reply, error = self._attempt_replica(
                    replica, endpoint, child, answer, query_text, doc,
                    limit, max_steps, baseline, use_shard_cache,
                    min(deadline, time.monotonic() + budget))
                if self.breakers is not None:
                    # a decoded mergeable answer is the only success; a
                    # refusal/interruption/app error counts against the
                    # replica just as it did pre-replication
                    self.breakers.record(
                        replica,
                        failed=(reply is None or reply.error is not None
                                or reply.outcome.status
                                not in _MERGEABLE))
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
                if reply.outcome.status in _MERGEABLE:
                    versions = getattr(reply, "versions", None) or {}
                    version = versions.get(doc)
                    if version is not None:
                        answer.version = version
                        self._observe_version(shard, replica, version)
                    with rows_lock:
                        rows_by_shard[shard] = [
                            dict(row, shard=shard)
                            for row in reply.results]
                    # rows land before the flag flips: a deadline-expired
                    # merge that reads ok=True always finds the rows too
                    answer.rows = len(reply.results)
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
        finally:
            answer.elapsed = time.monotonic() - started
            child.annotate(merged=answer.ok, rows=answer.rows,
                           attempts=answer.attempts,
                           **({"replica": answer.replica}
                              if answer.replica else {}),
                           **({"error": answer.error}
                              if answer.error else {}))
            child.finish()

    def _attempt_replica(self, replica, endpoint, child, answer,
                         query_text, document, limit, max_steps, baseline,
                         use_shard_cache, attempt_deadline
                         ) -> Tuple[Optional[Any], Optional[str]]:
        """One replica's exchange, hedged when configured.

        Returns ``(reply, None)`` on any decoded reply and ``(None,
        error)`` on connect failure / attempt timeout.  When the hedge
        race produced a loser still in flight, its request id is sent a
        ``cancel`` wire op so it stops burning shard worker capacity.
        """
        host, port = endpoint
        idempotency = f"fanout-{uuid.uuid4().hex}"
        state: Dict[str, Any] = {"ids": {}, "errors": []}
        state_lock = threading.Lock()
        done = threading.Event()
        expected = [1]

        def attempt(tag: str) -> None:
            request_id = f"{idempotency}-{tag}"
            with state_lock:
                state["ids"][tag] = request_id
            try:
                budget = attempt_deadline - time.monotonic()
                if budget <= 0:
                    raise TimeoutError("attempt budget exhausted")
                with tracer().activate(child):
                    client = self.client_factory(
                        host, port, timeout=budget,
                        client_name=f"{self.client_name}/{replica}")
                    with client:
                        got = client.query(
                            query_text, document=document,
                            request_id=request_id,
                            limit=limit, timeout=budget,
                            max_steps=max_steps, baseline=baseline,
                            no_cache=not use_shard_cache,
                            idempotency_key=idempotency)
                with state_lock:
                    if "reply" not in state:
                        state["reply"] = got
                        state["tag"] = tag
            except Exception as exc:
                with state_lock:
                    state["errors"].append(f"{tag}: {exc}")
            finally:
                with state_lock:
                    # the exchange is decided once a reply landed or
                    # every launched attempt has failed
                    if "reply" in state or \
                            len(state["errors"]) >= expected[0]:
                        done.set()

        primary = threading.Thread(target=attempt, args=("primary",),
                                   name=f"fanout-{replica}-1", daemon=True)
        primary.start()
        hedged = False
        if self.hedge_after is not None:
            done.wait(min(self.hedge_after,
                          max(0.0, attempt_deadline - time.monotonic())))
            if not done.is_set() and \
                    attempt_deadline - time.monotonic() > 0:
                self._count("hedges")
                hedged = True
                answer.hedged = True
                with state_lock:
                    expected[0] = 2
                hedge = threading.Thread(
                    target=attempt, args=("hedge",),
                    name=f"fanout-{replica}-2", daemon=True)
                hedge.start()
        done.wait(max(0.0, attempt_deadline - time.monotonic()) + 0.05)
        with state_lock:
            reply = state.get("reply")
            errors = list(state["errors"])
            won_by = state.get("tag")
            ids = dict(state["ids"])
        if reply is not None and hedged:
            failed_tags = {e.split(":", 1)[0] for e in errors}
            loser = "hedge" if won_by == "primary" else "primary"
            if loser in ids and loser not in failed_tags:
                self._cancel_request(replica, host, port, ids[loser])
        if reply is None:
            return None, ("; ".join(errors) if errors
                          else "no answer inside the attempt deadline")
        if won_by == "hedge":
            self._count("hedge_wins")
            answer.hedge_won = True
        return reply, None

    def _cancel_request(self, replica: str, host: str, port: int,
                        target_id: str) -> None:
        """Best-effort cancel of a losing hedged request."""
        try:
            client = self.client_factory(
                host, port, timeout=1.0,
                client_name=f"{self.client_name}/{replica}")
            with client:
                found = client.cancel(target_id, reason="hedge loser")
            self._count("hedge_cancelled" if found
                        else "hedge_cancel_noop")
        except Exception:
            self._count("hedge_cancel_failed")

    # -- the merge ------------------------------------------------------------

    def _merge(self, targets, answers, rows_by_shard,
               limit: Optional[int]) -> ClusterReply:
        final: List[ShardAnswer] = [
            a if a is not None else ShardAnswer(shard=s, ok=False,
                                                error="never dispatched")
            for s, a in zip(targets, answers)]
        ok_shards = {a.shard for a in final if a.ok}
        rows: List[Dict[str, Any]] = []
        truncated = False
        for shard in targets:  # deterministic shard order
            if shard in ok_shards:
                rows.extend(rows_by_shard.get(shard, ()))
        for answer in final:
            if answer.ok and answer.outcome is not None \
                    and answer.outcome.status is Outcome.TRUNCATED:
                truncated = True
        if limit is not None and len(rows) > limit:
            rows = rows[:limit]
            truncated = True
        merged = sum(1 for a in final if a.ok)
        failed = len(final) - merged
        detail = {
            "submitted": len(final),
            "merged": merged,
            "failed": failed,
            "map_version": self.shard_map.version,
            "replication_factor": self.shard_map.replication_factor,
            "shards": {a.shard: a.accounting() for a in final},
        }
        steps = sum(a.outcome.steps for a in final
                    if a.outcome is not None)
        if failed == 0:
            status = Outcome.TRUNCATED if truncated else Outcome.COMPLETE
            reason = ("global limit reached across shards"
                      if truncated else "")
            outcome = QueryOutcome(status=status, reason=reason,
                                   steps=steps, results=len(rows),
                                   detail=detail)
            self._count("complete")
            return ClusterReply(results=rows, outcome=outcome,
                                answers=final)
        self._count("partials")
        failed_ids = sorted(a.shard for a in final if not a.ok)
        outcome = partial_outcome(
            f"{failed}/{len(final)} shard(s) did not answer: "
            + ", ".join(failed_ids), detail=detail)
        outcome.steps = steps
        outcome.results = len(rows)
        error = None
        if merged == 0:
            error = "every shard failed; no rows merged"
        return ClusterReply(results=rows, outcome=outcome,
                            answers=final, error=error)
