"""The selection-operator access-method pipeline (Sections 4.1–4.4).

:class:`GraphMatcher` composes the four stages the paper evaluates:

1. retrieval of feasible mates (attribute index or scan);
2. local pruning by profiles or neighborhood subgraphs (Section 4.2);
3. joint reduction of the search space by pseudo-subgraph-isomorphism
   refinement (Section 4.3);
4. search-order optimization and the backtracking search (Sections 4.4,
   4.1).

Every stage records its timing and the search-space size it produced in a
:class:`MatchReport`, which is exactly what the paper's figures plot
(reduction ratios, per-step times, total times).
"""

from __future__ import annotations

import copy
import logging
import math
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

from ..core.bindings import EMPTY_ANSWERS, AnswerTable, as_graph
from ..core.graph import Graph
from ..core.pattern import GroundPattern
from ..index.attribute_index import AttributeIndexSet
from ..index.path_index import (MAX_PATH_WALKS, FeatureNeeds, enumerate_label_paths,
                                path_walk_bound)
from ..index.profile_index import ProfileIndex
from ..obs.trace import span as trace_span
from ..runtime import (
    ExecutionContext,
    ExecutionInterrupted,
    Outcome,
    QueryOutcome,
    current_outcome,
    mapping_cost,
)
from .basic import SearchCounters, find_matches, scan_feasible_mates
from .feasible_mates import RetrievalStats, retrieve_feasible_mates
from .refinement import RefinementStats, refine_search_space, space_size
from .search_order import CostModel, connected_order, greedy_order, order_cost
from .statistics import GraphStatistics

logger = logging.getLogger(__name__)

#: how the degradation note of a failed Algorithm 4.2 run starts (EXPLAIN
#: reports ``refine: false`` for a plan that carries one)
REFINEMENT_FAILED = "refinement failed"

#: a matcher's label paths before they are counted
_UNCOUNTED: Counter = Counter()


@dataclass
class MatchOptions:
    """Strategy flags for one matching run.

    The paper's "Optimized" configuration is the default: retrieval by
    profiles, refinement at level = query size, greedy optimized order.
    The "Baseline" configuration is
    ``MatchOptions(local="none", refine=False, optimize_order=False)``.
    """

    local: str = "profile"            # "none" | "profile" | "subgraph"
    refine: bool = True               # run Algorithm 4.2
    refine_level: Optional[int] = None  # None => pattern size
    optimize_order: bool = True       # greedy cost-based order vs connected order
    radius: int = 1
    exhaustive: bool = True
    limit: Optional[int] = None       # None => no cap; else at least 1

    def __post_init__(self) -> None:
        if self.limit is not None and self.limit < 1:
            raise ValueError(f"limit must be at least 1, got {self.limit}")


@dataclass
class AccessPlan:
    """What steps 0–4 decided for one ground pattern on one graph.

    The single plan representation: :meth:`GraphMatcher.match` searches
    it, EXPLAIN renders it.
    ``baseline_space`` is the space after retrieval by F_u alone (the
    denominator of the paper's reduction ratios), ``retrieved_space``
    after local pruning, ``refined_space`` after Algorithm 4.2 — the
    size of ``space``, which the search enumerates in ``order``.
    ``degradation`` lists every fallback the planner took
    (missing/broken index, failed refinement, …) — an empty list means
    the full pipeline ran as configured.
    """

    baseline_space: int = 0
    retrieved_space: int = 0
    refined_space: int = 0
    times: Dict[str, float] = field(default_factory=dict)
    retrieval: RetrievalStats = field(default_factory=RetrievalStats)
    refinement: Optional[RefinementStats] = None
    space: Dict[str, List[str]] = field(default_factory=dict, repr=False)
    order: List[str] = field(default_factory=list)
    #: "greedy" | "connected" | "declaration"
    policy: str = ""
    cost_model: Optional[CostModel] = field(default=None, repr=False)
    degradation: List[str] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        """Sum of all step times (seconds)."""
        return sum(self.times.values())

    def estimate(self) -> Tuple[float, float]:
        """``(estimated cost, estimated result size)`` of searching
        ``space`` in ``order`` (Definitions 4.11–4.13).

        Computed on demand: only EXPLAIN reads it, the search does not.
        """
        if self.cost_model is None:
            return (0.0, 0.0)
        sizes = {name: len(mates) for name, mates in self.space.items()}
        return order_cost(self.order, sizes, self.cost_model)


@dataclass
class MatchReport(AccessPlan):
    """The access plan of one run plus what searching it produced.

    ``outcome`` records how the run ended (COMPLETE / TRUNCATED /
    TIMED_OUT / CANCELLED, with steps and elapsed time); ``mappings``
    holds whatever was found up to that point, so interrupted runs still
    carry their partial results.  It is an immutable
    :class:`~repro.core.bindings.AnswerTable` with one block per search
    (``len`` counts the mappings; iterating builds them), shared by
    copies of the report.  ``replayed`` marks a report
    :func:`match_members` replayed from the memoised run of the same
    graph version instead of searching again; its ``times`` then hold
    only the replay's own wall time (stage ``replay``).
    """

    search: Optional[SearchCounters] = None
    mappings: AnswerTable = EMPTY_ANSWERS
    outcome: QueryOutcome = field(default_factory=QueryOutcome)
    replayed: bool = False

    def copy(self) -> "MatchReport":
        """A copy that shares nothing :meth:`absorb` or a caller changes:
        its counters, times, order and notes are its own.  The answer
        table (immutable), the planned space and retrieval statistics
        (read-only once planned) and the outcome (replaced, never
        changed) are shared."""
        twin = MatchReport.__new__(MatchReport)
        twin.__dict__.update(self.__dict__)
        twin.times = dict(self.times)
        twin.order = list(self.order)
        twin.degradation = list(self.degradation)
        if self.refinement is not None:
            twin.refinement = copy.copy(self.refinement)
        if self.search is not None:
            twin.search = self.search.copy()
        return twin

    def absorb(self, other: "MatchReport") -> None:
        """Fold in a later derivation's report on the same graph: the
        answer tables concatenate (their schemas may differ), times,
        spaces and work counters add up, the outcome is the later run's."""
        self.mappings = self.mappings + other.mappings
        if self.search is None:
            self.search = other.search
        elif other.search is not None:
            self.search.add(other.search)
        if self.refinement is None:
            self.refinement = other.refinement
        elif other.refinement is not None:
            self.refinement.add(other.refinement)
        for key, value in other.times.items():
            self.times[key] = self.times.get(key, 0.0) + value
        self.baseline_space += other.baseline_space
        self.retrieved_space += other.retrieved_space
        self.refined_space += other.refined_space
        self.degradation.extend(other.degradation)
        self.outcome = other.outcome
        self.replayed = self.replayed and other.replayed

    def reduction_ratio(self, stage: str = "refined") -> float:
        """Search-space reduction ratio against the baseline space."""
        if self.baseline_space == 0:
            return 0.0
        size = self.refined_space if stage == "refined" else self.retrieved_space
        return size / self.baseline_space

    def stats_dict(self) -> Dict[str, object]:
        """JSON-ready per-stage statistics (counts, timings, order).

        This is what ``repro-gql match --json`` embeds per graph so
        scripts get the stage breakdown without re-running verbose.
        """
        retrieval = self.retrieval
        refinement = self.refinement
        search = self.search
        return {
            "replayed": self.replayed,
            "times": dict(self.times),
            "total_time": self.total_time,
            "spaces": {
                "baseline": self.baseline_space,
                "retrieved": self.retrieved_space,
                "refined": self.refined_space,
            },
            "order": list(self.order),
            "retrieval": {
                "scanned": dict(retrieval.scanned),
                "feasible_mates": dict(retrieval.after_fu),
                "after_pruning": dict(retrieval.after_local),
                "method": dict(retrieval.method),
            },
            "refinement": ({
                "levels_run": refinement.levels_run,
                "pairs_checked": refinement.pairs_checked,
                "pairs_removed": refinement.pairs_removed,
            } if refinement is not None else None),
            "search": ({
                "candidates_tried": search.candidates_tried,
                "check_calls": search.check_calls,
                "partial_states": search.partial_states,
                "results": search.results,
            } if search is not None else None),
        }


class GraphMatcher:
    """Matches ground patterns against one data graph with shared indexes.

    Build one matcher per data graph; indexes and statistics are computed
    once and reused across queries, as a database system would.
    ``indexed=False`` builds neither index: retrieval scans and local
    pruning counts profiles on the fly.  Such a matcher also keeps
    ``memo``, the complete runs of the current graph version that
    :func:`match_members` replays, and the graph's label paths that its
    filter reads (:meth:`may_contain`); a rebuild starts both empty.
    """

    def __init__(self, graph: Graph, radius: int = 1, indexed: bool = True) -> None:
        self.graph = graph
        self._radius = radius
        self.indexed = indexed
        self._rebuild()

    def _rebuild(self) -> None:
        # each auxiliary structure is optional: a build failure degrades
        # the pipeline (recorded in build_errors and on later reports)
        # instead of making the graph unqueryable
        self.build_errors: List[str] = []
        try:
            self.stats: Optional[GraphStatistics] = GraphStatistics(self.graph)
        except Exception as exc:
            self.stats = None
            self._note_build_error("graph statistics", exc)
        self.attribute_index: Optional[AttributeIndexSet] = None
        self.profile_index: Optional[ProfileIndex] = None
        #: index-less matchers only: ground pattern -> {exhaustive:
        #: _Recorded run of this graph version} (see match_members)
        self.memo: Optional[WeakKeyDictionary] = (
            None if self.indexed else WeakKeyDictionary())
        #: counted on first use by :meth:`label_paths`
        self._label_paths: Optional[Counter] = _UNCOUNTED
        if self.indexed:
            try:
                self.attribute_index = AttributeIndexSet(self.graph)
            except Exception as exc:
                self._note_build_error("attribute index", exc)
            try:
                self.profile_index = ProfileIndex(self.graph,
                                                  radius=self._radius)
            except Exception as exc:
                self._note_build_error("profile index", exc)
        self._built_version = self.graph.version

    def _note_build_error(self, what: str, exc: Exception) -> None:
        message = f"{what} build failed ({exc}); continuing without it"
        self.build_errors.append(message)
        logger.warning("%r: %s", self.graph, message)

    def refresh(self) -> bool:
        """Rebuild indexes/statistics if the graph mutated; returns whether
        a rebuild happened.  ``match`` calls this automatically, so
        queries never run against stale index structures."""
        if self.graph.version != self._built_version:
            self._rebuild()
            return True
        return False

    # -- the collection filter (index/path_index.py) ------------------------------

    def may_contain(self, needs: FeatureNeeds, paths: bool = True) -> bool:
        """GraphGrep's containment test on the current graph version:
        ``False`` only when the graph has fewer of some label or label
        path than a pattern with *needs* requires, so no mapping exists.
        Label counts (the statistics') are checked first; with *paths*,
        the label paths are then read too, counted only for a graph
        whose labels pass, once per graph version."""
        self.refresh()
        if self.stats is not None:
            counts = self.stats.label_freq
            for label, count in needs.labels:
                if counts.get(label, 0) < count:
                    return False
        if paths and needs.paths:
            have = self.label_paths()
            if have is not None:
                for feature, count in needs.paths:
                    if have.get(feature, 0) < count:
                        return False
        return True

    def label_paths(self) -> Optional[Counter]:
        """The label-path features of the graph version this matcher was
        built for, counted on first use; ``None`` (the filter passes the
        graph) when counting them would exceed
        :data:`~repro.index.path_index.MAX_PATH_WALKS` traversals or
        failed, the latter a build error (a degradation note on later
        plans)."""
        paths = self._label_paths
        if paths is _UNCOUNTED:
            paths = None
            if path_walk_bound(self.graph) <= MAX_PATH_WALKS:
                try:
                    paths = enumerate_label_paths(self.graph)
                except Exception as exc:
                    self._note_build_error("label-path features", exc)
            self._label_paths = paths
        return paths

    # -- the full pipeline -------------------------------------------------------

    def match(
        self,
        pattern: GroundPattern,
        options: Optional[MatchOptions] = None,
        context: Optional[ExecutionContext] = None,
    ) -> MatchReport:
        """Run the full access-method pipeline on one ground pattern:
        :meth:`plan` (steps 0–4), then the backtracking search.

        With a *context*, every stage is governed: deadline expiry, step
        budget exhaustion or cancellation stop the run, the interruption
        is recorded on the context, and the report carries a structured
        :class:`~repro.runtime.QueryOutcome` plus whatever mappings the
        search had produced.
        """
        opts = options or MatchOptions()
        return self._match(pattern, opts, opts.limit, context)

    def _match(self, pattern: GroundPattern, opts: MatchOptions,
               limit: Optional[int],
               context: Optional[ExecutionContext]) -> MatchReport:
        """:meth:`match` looking for at most *limit* answers: the search's
        one cap, ``opts.limit`` is not read.  :meth:`match` passes
        ``opts.limit``; :func:`match_members`, its only other caller,
        passes the count still missing, on options without a limit."""
        report = MatchReport()
        with trace_span("match.query", graph=self.graph.name or "<anon>") as sp:
            try:
                self._plan(report, pattern, opts, context)
                self._search(pattern, opts, limit, report, context)
            except ExecutionInterrupted as exc:
                if context is None:
                    raise
                context.mark_interrupted(exc)
            report.outcome = current_outcome(context)
            sp.annotate(status=report.outcome.status.value)
            sp.incr("mappings", len(report.mappings))
        return report

    def plan(
        self,
        pattern: GroundPattern,
        options: Optional[MatchOptions] = None,
        context: Optional[ExecutionContext] = None,
    ) -> AccessPlan:
        """Steps 0–4 without the search: the access plan EXPLAIN renders.

        Failures of auxiliary structures (indexes, statistics,
        refinement) never abort planning: the planner walks a
        degradation ladder — indexed retrieval, then on-the-fly local
        pruning, then the basic scan matcher — and records each step
        taken in ``plan.degradation``.  Interruptions from *context*
        propagate as :class:`~repro.runtime.ExecutionInterrupted`.
        """
        return self._plan(AccessPlan(), pattern, options or MatchOptions(),
                          context)

    def _degrade(self, plan: AccessPlan, message: str) -> None:
        plan.degradation.append(message)
        logger.warning("%r: %s", self.graph, message)

    def _retrieve(
        self,
        pattern: GroundPattern,
        opts: MatchOptions,
        plan: AccessPlan,
    ) -> Dict[str, List[str]]:
        """Retrieval + local pruning, down the degradation ladder on error.

        Rung 0: configured indexes.  Rung 1: no indexes — the exact F_u
        scan with local pruning computed on the fly.  Rung 2: the basic
        matcher's full scan (no pruning at all).  Interruptions from the
        governance context always propagate.
        """
        ladder = (
            ("indexed retrieval (local={local!r}) failed ({exc}); "
             "retrying without indexes",
             self.attribute_index, self.profile_index),
            ("unindexed retrieval failed ({exc}); "
             "falling back to the basic scan matcher", None, None),
        )
        for failure, attribute_index, profile_index in ladder:
            try:
                return retrieve_feasible_mates(
                    pattern,
                    self.graph,
                    attribute_index=attribute_index,
                    profile_index=profile_index,
                    local=opts.local,
                    radius=opts.radius,
                    stats=plan.retrieval,
                )
            except ExecutionInterrupted:
                raise
            except Exception as exc:
                self._degrade(plan,
                              failure.format(local=opts.local, exc=exc))
        space = scan_feasible_mates(pattern, self.graph)
        for name, mates in space.items():
            plan.retrieval.method[name] = "scan"
            plan.retrieval.after_fu[name] = len(mates)
            plan.retrieval.after_local[name] = len(mates)
        return space

    def _plan(
        self,
        plan: AccessPlan,
        pattern: GroundPattern,
        opts: MatchOptions,
        context: Optional[ExecutionContext],
    ) -> AccessPlan:
        graph = self.graph
        # a request that expired while queued rebuilds no index
        if context is not None:
            context.check()
        try:
            self.refresh()
        except Exception as exc:
            self._degrade(plan, f"index refresh failed ({exc}); "
                                "matching with stale structures")
        plan.degradation.extend(self.build_errors)

        # Steps 0-2: retrieval (index or scan, then the exact F_u check)
        # and local pruning.  The space after F_u alone is the baseline
        # the reduction ratios divide by.
        started = time.perf_counter()
        with trace_span("match.prune", local=opts.local) as sp:
            space = self._retrieve(pattern, opts, plan)
            sp.incr("space", space_size(space))
        plan.times["local_pruning"] = time.perf_counter() - started
        plan.baseline_space = math.prod(plan.retrieval.after_fu.values())
        plan.retrieved_space = space_size(space)

        # Step 3: joint reduction (Algorithm 4.2), once per orbit of the
        # pattern's automorphisms
        if opts.refine:
            symmetry = pattern.symmetry(graph.directed)
            started = time.perf_counter()
            with trace_span("match.refine") as sp:
                refinement_stats = RefinementStats()
                try:
                    space = refine_search_space(
                        pattern.motif,
                        graph,
                        space,
                        level=opts.refine_level,
                        stats=refinement_stats,
                        context=context,
                        orbits=None if symmetry.trivial else symmetry.orbit_of,
                    )
                except ExecutionInterrupted:
                    plan.times["refine"] = time.perf_counter() - started
                    raise
                except Exception as exc:
                    self._degrade(plan, f"{REFINEMENT_FAILED} ({exc}); "
                                        "searching the unrefined space")
                sp.incr("pairs_removed", refinement_stats.pairs_removed)
            plan.times["refine"] = time.perf_counter() - started
            plan.refinement = refinement_stats
        plan.space = space
        plan.refined_space = space_size(space)

        # Step 4: search order
        started = time.perf_counter()
        with trace_span("match.order") as sp:
            model = plan.cost_model = CostModel(
                pattern.motif, stats=self.stats, directed=graph.directed)
            try:
                if opts.optimize_order:
                    sizes = {name: len(candidates)
                             for name, candidates in space.items()}
                    plan.order, plan.policy = (
                        greedy_order(pattern.motif, sizes, model), "greedy")
                else:
                    plan.order, plan.policy = (
                        connected_order(pattern.motif), "connected")
            except Exception as exc:
                self._degrade(
                    plan,
                    f"search-order optimization failed ({exc}); "
                    "using declaration order")
                plan.order, plan.policy = pattern.node_names(), "declaration"
            sp.annotate(policy=plan.policy)
        plan.times["order"] = time.perf_counter() - started
        return plan

    def _search(
        self,
        pattern: GroundPattern,
        opts: MatchOptions,
        limit: Optional[int],
        report: MatchReport,
        context: Optional[ExecutionContext],
    ) -> None:
        # Step 5: the backtracking search (Algorithm 4.1)
        started = time.perf_counter()
        counters = SearchCounters()
        with trace_span("match.search") as sp:
            try:
                report.mappings = find_matches(
                    pattern,
                    self.graph,
                    candidates=report.space,
                    order=report.order,
                    exhaustive=opts.exhaustive,
                    limit=limit,
                    counters=counters,
                    context=context,
                )
            finally:
                report.times["search"] = time.perf_counter() - started
                report.search = counters
                sp.incr("results", counters.results)
                sp.incr("candidates_tried", counters.candidates_tried)


#: The access-method policy of :func:`match_members`: a member with fewer
#: nodes than this runs the baseline plan on an index-less matcher (the
#: paper's category 1, many small graphs), any other the requested options
#: on the indexed matcher (category 2).  Measured in docs/access_methods.md.
SMALL_MEMBER_NODES = 24


class MemberRun(NamedTuple):
    """One derivation of a pattern run (or planned) on one member graph."""

    position: int            # of the member in its collection
    matcher: GraphMatcher    # ``matcher.graph`` is the member
    options: MatchOptions    # the policy's, no limit: the search's cap is
                             # the query's answers still missing
    ground: GroundPattern
    report: AccessPlan       # a MatchReport unless planned only


class _Recorded(NamedTuple):
    """A complete run of a small member, kept in ``GraphMatcher.memo``."""

    version: int             # of the graph the run searched
    report: MatchReport      # a private copy
    steps: int               # the context ticks the run took
    memory: int              # the mapping_cost of its answers


def _memoise(matcher: GraphMatcher, ground: GroundPattern,
             exhaustive: bool, limit: Optional[int], report: MatchReport,
             version: int) -> None:
    """Keep a small member's run for replay when it ran to its natural
    end on graph *version*: COMPLETE, and not stopped by *limit*."""
    found = len(report.mappings)
    if (report.outcome.status is not Outcome.COMPLETE
            or matcher.graph.version != version
            or (limit is not None and found >= limit)):
        return
    # the search ticks once per candidate tried, and a small member's
    # plan runs no Algorithm 4.2, the only other ticking stage
    steps = report.search.candidates_tried if report.search else 0
    memory = sum(len(block.rows)
                 * mapping_cost(len(block.nodes) + len(block.edges))
                 for block in report.mappings.blocks)
    matcher.memo.setdefault(ground, {})[exhaustive] = _Recorded(
        version, report.copy(), steps, memory)


def _replay(matcher: GraphMatcher, ground: GroundPattern,
            exhaustive: bool, limit: Optional[int],
            context: Optional[ExecutionContext]) -> Optional[MatchReport]:
    """The memoised run of this graph version, replayed as if it ran
    again; ``None`` when the member must run for real.

    A replay charges *context* (checked by the member loop just before)
    the recorded steps, results and memory, so budgets and outcomes add
    up as for the real run.  It is refused when *limit* or a
    budget would have stopped that run part-way: the real run then
    truncates exactly as it would without the memo.  The replayed
    report's ``times`` hold the replay's own wall time (stage
    ``replay``), not the recorded run's stages.
    """
    started = time.perf_counter()
    recorded = (matcher.memo.get(ground) or {}).get(exhaustive)
    if recorded is None or recorded.version != matcher.graph.version:
        return None
    found = len(recorded.report.mappings)
    if limit is not None and found >= limit:
        return None
    if context is not None:
        if ((context.max_steps is not None
             and context.steps + recorded.steps > context.max_steps)
                or (context.max_memory is not None
                    and context.memory_used + recorded.memory
                    >= context.max_memory)):
            return None
        context.charge(recorded.steps, found, recorded.memory)
    with trace_span("match.query", graph=matcher.graph.name or "<anon>",
                    replayed=True) as sp:
        report = recorded.report.copy()
        report.replayed = True
        report.times = {"replay": time.perf_counter() - started}
        report.outcome = current_outcome(context)
        sp.annotate(status=report.outcome.status.value)
        sp.incr("mappings", found)
    return report


#: each derivation of a pattern with what a member must have to contain it
_Derivations = List[Tuple[GroundPattern, Optional[FeatureNeeds]]]


def member_matcher(matchers: Dict[int, GraphMatcher], graph: Graph,
                   small: bool,
                   context: Optional[ExecutionContext] = None) -> GraphMatcher:
    """The matcher of *graph* in *matchers* (``id(graph)`` → matcher),
    index-less when *small*; a missing one is built and kept, after
    ``context.check()`` (so a request whose time ran out, in the queue
    say, builds no statistics or index)."""
    matcher = matchers.get(id(graph))
    if (matcher is None or matcher.graph is not graph
            or matcher.indexed == small):
        if context is not None:
            context.check()
        matcher = matchers[id(graph)] = GraphMatcher(graph, indexed=not small)
    return matcher


def match_members(
    collection: Iterable,
    grounds: Sequence[GroundPattern],
    options: Optional[MatchOptions] = None,
    matchers: Optional[Dict[int, GraphMatcher]] = None,
    context: Optional[ExecutionContext] = None,
    search: bool = True,
    filtered: Optional[List[int]] = None,
) -> Iterator[MemberRun]:
    """σ_P over a collection: the one member loop every selection runs.

    Matches the derivations *grounds* of one pattern against each member
    of *collection* and yields one :class:`MemberRun` per derivation run.
    ``options.limit`` caps the query's whole answer: each search looks
    only for the answers still missing, and the run that fills the cap
    ends the loop ``TRUNCATED``.  ``exhaustive`` off keeps one mapping
    per member.  *context* governs every search; once it is interrupted
    or truncated, the rest is skipped.  It is checked before a member's
    matcher is first built and before each member run starts; a failed
    check is recorded on it and ends the loop without a run for that
    member.  ``search=False`` yields :meth:`GraphMatcher.plan` results
    instead (EXPLAIN).

    Which matcher and options a member gets is decided here and nowhere
    else, from its node count (:data:`SMALL_MEMBER_NODES`): an indexed
    matcher for a big member, an index-less one for a small member.
    *matchers* is the caller's cache (``id(graph)`` → matcher) when the
    collection is a registered document; without one every matcher
    lives for this call only.  A small member's complete run is
    memoised on its matcher per ground pattern and ``exhaustive``, for
    the graph version it searched, and replayed (``report.replayed``)
    until the graph changes — so after a write to one member, only that
    member searches again.

    A small member is filtered first (GraphGrep, the paper's category
    1): a derivation whose label counts or label paths the member lacks
    (:meth:`GraphMatcher.may_contain`) is not run, replayed or planned
    there, and yields nothing.  The position of a member the filter
    rejected for every derivation is appended to *filtered* when one is
    given.  Big members are never filtered: their indexed retrieval
    rejects by label anyway.  Label paths are read only when *matchers*
    is given, since they pay off across the calls that share it; a
    call without it checks label counts only.
    """
    count_paths = matchers is not None
    matchers = {} if matchers is None else matchers
    requested = options or MatchOptions()
    #: small? -> that policy's options; they carry no limit, since a
    #: search's one cap is ``remaining``, the answers still missing
    policy = {True: replace(requested, local="none", refine=False,
                            optimize_order=False, limit=None),
              False: replace(requested, limit=None)}
    #: big members are never filtered: no feature needs
    unfiltered: _Derivations = [(ground, None) for ground in grounds]
    #: directed? -> (ground, what a graph containing it needs) per
    #: derivation, looked up once per call, at the first small member
    filters: Dict[bool, _Derivations] = {}
    remaining = requested.limit
    for position, member in enumerate(collection):
        graph = as_graph(member)
        small = graph.num_nodes() < SMALL_MEMBER_NODES
        try:
            matcher = member_matcher(matchers, graph, small, context)
        except ExecutionInterrupted as exc:
            assert context is not None  # only a context interrupts
            context.mark_interrupted(exc)  # as GraphMatcher.match does
            return
        member_options = policy[small]
        derivations = unfiltered
        if small:
            derivations = filters.get(graph.directed)
            if derivations is None:
                derivations = filters[graph.directed] = [
                    (ground, ground.feature_needs(graph.directed))
                    for ground in grounds]
        rejected = True
        for ground, needs in derivations:
            if context is not None and context.is_stopped:
                return
            if needs is not None and not matcher.may_contain(needs,
                                                             count_paths):
                continue
            rejected = False
            found = 0
            if context is not None:
                # no member starts once the context has run out, cached
                # matcher or not, so a replay stops where the real run would
                try:
                    context.check()
                except ExecutionInterrupted as exc:
                    context.mark_interrupted(exc)
                    return
            if not search:
                report: AccessPlan = matcher.plan(ground, member_options)
            else:
                exhaustive = member_options.exhaustive
                report = (_replay(matcher, ground, exhaustive, remaining,
                                  context) if small else None)
                if report is None:
                    version = graph.version
                    report = matcher._match(ground, member_options,
                                            remaining, context)
                    if small:
                        _memoise(matcher, ground, exhaustive, remaining,
                                 report, version)
                found = len(report.mappings)
                if remaining is not None:
                    remaining -= found
                    if not remaining and context is not None:
                        context.note_truncated(
                            f"answer cap of {requested.limit} reached")
                        report.outcome = context.outcome()
            yield MemberRun(position, matcher, member_options, ground, report)
            if remaining == 0:
                return
            if found and not requested.exhaustive:
                break  # one mapping per member
        if rejected and filtered is not None:
            filtered.append(position)


def baseline_options(**overrides) -> MatchOptions:
    """The paper's "Baseline": attribute retrieval only, naive order."""
    defaults = dict(local="none", refine=False, optimize_order=False)
    defaults.update(overrides)
    return MatchOptions(**defaults)


def optimized_options(**overrides) -> MatchOptions:
    """The paper's "Optimized": profiles + refinement + greedy order."""
    defaults = dict(local="profile", refine=True, optimize_order=True)
    defaults.update(overrides)
    return MatchOptions(**defaults)
