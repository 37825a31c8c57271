"""Benchmark-side tracing: spans around calls into each layer's public
functions, and the per-layer probes of a ``--trace 1`` run.

Spans are ``{name, start, end, parent, op_id}`` records kept in memory
and written to ``bench/out/trace_<workload>.jsonl`` when the run ends; a
span's self time is its duration minus its children's.  Span names start
with the package they call into (``matching.prune``, ``service.wire``,
``storage.write``), so self times add up per layer.

Every probe runs on the workload's own data and queries: a layer the
workload's timed path bypasses (``service`` on ``ppi_clique``, say) is
still measured, by pushing that workload's inputs through it.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import analyze_pattern_text
from repro.core import GraphCollection
from repro.index import AttributeIndexSet, ProfileIndex
from repro.lang.compiler import compile_pattern_text
from repro.matching import (
    CostModel,
    GraphMatcher,
    GraphStatistics,
    RefinementStats,
    SearchCounters,
    find_matches,
    greedy_order,
    refine_search_space,
    retrieve_feasible_mates,
    space_size,
)
from repro.obs.trace import SpanCollector, tracer
from repro.runtime import ExecutionContext
from repro.service import protocol
from repro.sqlbaseline import (
    ExecutionStats,
    SQLGraphMatcher,
    WorkBudgetExceeded,
)
from repro.storage.database import GraphDatabase
from repro.storage.serializer import collection_to_text

from bench.workloads import (
    LIMIT,
    OPTIONS,
    OUT_DIR,
    LibraryState,
    Op,
    Query,
    ServedState,
    Workload,
)

#: Row budget of the SQL arm, as benchmarks/harness.SQL_ROW_BUDGET.
SQL_ROW_BUDGET = 600_000
#: Step budget of one core.select probe query.
SELECT_STEP_BUDGET = 20_000


class _Span:
    __slots__ = ("recorder", "record")

    def __init__(self, recorder: "Recorder", record: list) -> None:
        self.recorder = recorder
        self.record = record

    def __enter__(self) -> "_Span":
        self.recorder.stack.append(self.record[5])
        self.record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.record[2] = time.perf_counter()
        self.recorder.stack.pop()


class Recorder:
    """In-memory span and count recorder for one traced run."""

    def __init__(self) -> None:
        #: [name, start, end, parent index, op id, own index]
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        #: per-query geometric-mean inputs (log of space ratios)
        self.log_ratios: Dict[str, List[float]] = {"retrieved": [], "refined": []}

    def span(self, name: str, op_id: Optional[str] = None) -> _Span:
        parent = self.stack[-1] if self.stack else None
        if op_id is None and parent is not None:
            op_id = self.spans[parent][4]
        record = [name, 0.0, 0.0, parent, op_id, len(self.spans)]
        self.spans.append(record)
        return _Span(self, record)

    def child(self, name: str, duration: float) -> None:
        """A child of the innermost finished-or-open span whose duration
        was reported by the program (the reply's ``elapsed``), centred in
        its parent."""
        parent = self.spans[-1]
        slack = max(0.0, (parent[2] - parent[1]) - duration)
        start = parent[1] + slack / 2
        self.spans.append([name, start, start + duration, parent[5],
                           parent[4], len(self.spans)])

    def self_times(self, first: int = 0) -> Dict[str, float]:
        """Summed self time per span name, over spans[first:]."""
        own = {}
        for name, start, end, parent, _op, index in self.spans[first:]:
            own[index] = own.get(index, 0.0) + (end - start)
            if parent is not None and parent >= first:
                own[parent] = own.get(parent, 0.0) - (end - start)
        totals: Dict[str, float] = {}
        for index, seconds in own.items():
            name = self.spans[index][0]
            totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op_id, index in self.spans:
                handle.write(json.dumps(
                    {"span": index, "name": name, "start": start, "end": end,
                     "parent": parent, "op_id": op_id}) + "\n")


def layer_shares(self_times: Dict[str, float]) -> Dict[str, float]:
    """Self time per layer (the span name's first component) as a share
    of all recorded time."""
    total = sum(self_times.values()) or 1.0
    shares: Dict[str, float] = {}
    for name, seconds in self_times.items():
        layer = name.split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + seconds / total
    return shares


# --------------------------------------------------------------------------
# Traced execution of one op
# --------------------------------------------------------------------------


def staged_match(matcher: GraphMatcher, query: Query, rec: Recorder) -> int:
    """The access-method pipeline, stage function by stage function in
    the order ``GraphMatcher.match`` runs them, one span per stage."""
    pattern, graph = query.pattern, matcher.graph
    indexes = dict(attribute_index=matcher.attribute_index,
                   profile_index=matcher.profile_index)
    with rec.span("matching.retrieve"):
        baseline = retrieve_feasible_mates(pattern, graph, local="none",
                                           **indexes)
    with rec.span("matching.prune"):
        space = retrieve_feasible_mates(pattern, graph, local="profile",
                                        **indexes)
    retrieved = space_size(space)
    with rec.span("matching.refine"):
        refinement = RefinementStats()
        space = refine_search_space(pattern.motif, graph, space,
                                    stats=refinement)
    with rec.span("matching.order"):
        sizes = {name: len(mates) for name, mates in space.items()}
        model = CostModel(pattern.motif, stats=matcher.stats,
                          directed=graph.directed)
        order = greedy_order(pattern.motif, sizes, model)
    with rec.span("matching.search"):
        counters = SearchCounters()
        mappings = find_matches(pattern, graph, candidates=space, order=order,
                                limit=LIMIT, counters=counters)
    base = space_size(baseline)
    if base:
        floor = 1e-30  # ratios can hit exactly zero
        rec.log_ratios["retrieved"].append(math.log(max(retrieved / base, floor)))
        rec.log_ratios["refined"].append(
            math.log(max(space_size(space) / base, floor)))
    rec.counts["refine_pairs_checked"] += refinement.pairs_checked
    rec.counts["search_candidates"] += counters.candidates_tried
    rec.counts["search_states"] += counters.partial_states
    rec.counts["answers"] += len(mappings)
    return len(mappings)


def traced_op(state, op: Op, rec: Recorder) -> Tuple[int, str]:
    """``state.run(op)`` with spans around each call into a layer."""
    with rec.span("bench.op", op.key):
        if isinstance(state, LibraryState):
            query = state.workload.queries[op.index]
            return staged_match(state.matcher, query, rec), "match"
        if op.kind == "write":
            with rec.span("storage.write"):
                return state.run(op)
        with rec.span("service.wire"):
            reply = state.query(state.workload.queries[op.index].text)
        rec.child("service.execute", float(reply.raw["elapsed"]))
        return len(reply.results), reply.cache


# --------------------------------------------------------------------------
# Layer probes
# --------------------------------------------------------------------------


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _timed(fn: Callable[[], object]) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _sample(items: Sequence, size: int) -> List:
    """*size* items evenly spaced over *items* (all of them if fewer)."""
    if len(items) <= size:
        return list(items)
    return [items[(i * len(items)) // size] for i in range(size)]


def distinct_queries(workload: Workload) -> List[Query]:
    """The workload's distinct queries, in first-arrival order."""
    seen: Dict[int, None] = {}
    for op in workload.ops:
        if op.kind != "write":
            seen.setdefault(op.index)
    return [workload.queries[index] for index in seen]


def matching_metrics(self_times: Dict[str, float], rec: Recorder,
                     queries: int, match_total_s: float) -> Dict[str, float]:
    """matching.* from staged-pipeline spans over *queries* queries;
    *match_total_s* is ``GraphMatcher.match`` on the same work."""
    stages = ("retrieve", "prune", "refine", "order", "search")
    out = {f"matching.{stage}_ms_per_query":
           _ms(self_times.get(f"matching.{stage}", 0.0)) / queries
           for stage in stages}
    staged_total = sum(self_times.get(f"matching.{stage}", 0.0)
                       for stage in stages)
    out["matching.planner_gap_ms_per_query"] = (
        _ms(match_total_s - staged_total) / queries)
    counts = rec.counts
    for name in ("retrieved", "refined"):
        logs = rec.log_ratios[name]
        out[f"matching.{name}_ratio"] = (
            math.exp(sum(logs) / len(logs)) if logs else 0.0)
    out["matching.refine_pairs_checked_per_query"] = (
        counts["refine_pairs_checked"] / queries)
    out["matching.search_candidates_per_query"] = (
        counts["search_candidates"] / queries)
    out["matching.search_states_per_query"] = counts["search_states"] / queries
    out["matching.search_hit_ratio"] = (
        counts["search_states"] / counts["search_candidates"]
        if counts["search_candidates"] else 0.0)
    out["matching.answers_per_query"] = counts["answers"] / queries
    return out


def probe_matching(workload: Workload, rec: Recorder) -> Dict[str, float]:
    """The staged pipeline and ``GraphMatcher.match`` over every
    distinct query x member graph (served workloads; the library
    workloads' traced pass already is this)."""
    matchers = [GraphMatcher(graph) for graph in workload.collection]
    queries = distinct_queries(workload)
    first = len(rec.spans)
    match_total = 0.0
    for query in queries:
        with rec.span("bench.probe", "matching"):
            for matcher in matchers:
                staged_match(matcher, query, rec)
        match_total += _timed(lambda: [m.match(query.pattern, OPTIONS)
                                       for m in matchers])
    return matching_metrics(rec.self_times(first), rec, len(queries),
                            match_total)


def probe_index(workload: Workload) -> Dict[str, float]:
    """Cold build time of each index over the workload's data (summed
    over member graphs; floor of three builds)."""
    graphs = workload.collection.graphs()
    database = GraphDatabase()
    database.register(workload.document, workload.collection)

    def floor_ms(build: Callable[[], object]) -> float:
        return _ms(min(_timed(build) for _ in range(3)))

    return {
        "index.stats_build_ms":
            floor_ms(lambda: [GraphStatistics(g) for g in graphs]),
        "index.attribute_build_ms":
            floor_ms(lambda: [AttributeIndexSet(g) for g in graphs]),
        "index.profile_build_ms":
            floor_ms(lambda: [ProfileIndex(g, radius=1) for g in graphs]),
        # what the program pays for its collection path index on this
        # document: a PathIndex build for >= 32 graphs, a no-op below
        "index.path_build_ms":
            _ms(_timed(lambda: database.collection_index_for(workload.document))),
    }


def probe_lang(workload: Workload) -> Dict[str, float]:
    texts = [query.text for query in _sample(distinct_queries(workload), 300)]
    compile_s = _timed(lambda: [compile_pattern_text(text, check=False)
                                for text in texts])
    analyze_s = _timed(lambda: [analyze_pattern_text(text) for text in texts])
    return {"lang.compile_ms_per_query": _ms(compile_s) / len(texts),
            "analysis.analyze_ms_per_query": _ms(analyze_s) / len(texts)}


def service_metrics(stats: Dict, wire_overheads_s: List[float]) -> Dict[str, float]:
    """service.* that come from one pass over the wire: the service's own
    ``stats()`` and the client-side round trips."""

    def ratio(section: str) -> float:
        hits, misses = stats[section]["hits"], stats[section]["misses"]
        return hits / (hits + misses) if hits + misses else 0.0

    return {
        "service.wire_overhead_ms_p50": _ms(statistics.median(wire_overheads_s)),
        "service.result_cache_hit_ratio": ratio("result_cache"),
        "service.plan_cache_hit_ratio": ratio("plan_cache"),
        "service.rejected": float(stats["rejected"] + stats["invalid_queries"]),
        "service.shed": float(stats["shed"]["total"]),
    }


def wire_overheads(rec: Recorder, first: int = 0) -> List[float]:
    """Round trip minus the reply's ``elapsed``: the self time of every
    ``service.wire`` span."""
    own: Dict[int, float] = {}
    for name, start, end, parent, _op, index in rec.spans[first:]:
        if name == "service.wire":
            own[index] = own.get(index, 0.0) + (end - start)
        elif name == "service.execute":
            own[parent] = own.get(parent, 0.0) - (end - start)
    return list(own.values())


def probe_service_wire(workload: Workload, rec: Recorder) -> Dict[str, float]:
    """A library workload's ops replayed once as wire reads (a served
    workload's own traced pass supplies these numbers instead)."""
    state = workload.setup(workload.prepare(ServedState, durable=False))
    try:
        first = len(rec.spans)
        for op in workload.ops:
            traced_op(state, op, rec)
        return service_metrics(state.service.stats(),
                               wire_overheads(rec, first))
    finally:
        state.close()


def probe_service_execute(workload: Workload) -> Dict[str, float]:
    """In-process ``QueryService.execute`` cold then warm, and the wire
    codec on the messages those requests would carry."""
    queries = _sample(distinct_queries(workload), 120)
    state = workload.setup(workload.prepare(ServedState, durable=False))
    try:
        miss, hit, messages = [], [], []
        for query in queries:
            for bucket in (miss, hit):
                started = time.perf_counter()
                response = state.service.execute(
                    query.text, document=workload.document, limit=LIMIT)
                bucket.append(time.perf_counter() - started)
            messages.append({"op": "query", "query": query.text,
                             "document": workload.document, "limit": LIMIT})
            messages.append(response.to_dict())
    finally:
        state.close()
    started = time.perf_counter()
    lines = [protocol.encode(message) for message in messages]
    encoded = time.perf_counter()
    for line in lines:
        protocol.decode(line)
    decoded = time.perf_counter()
    return {
        "service.execute_miss_ms_p50": _ms(statistics.median(miss)),
        "service.execute_hit_ms_p50": _ms(statistics.median(hit)),
        "service.protocol_encode_us": (encoded - started) * 1e6 / len(lines),
        "service.protocol_decode_us": (decoded - encoded) * 1e6 / len(lines),
    }


def probe_storage(workload: Workload, writes: int = 4) -> Dict[str, float]:
    """Durable writes on a private copy of the workload's data: each
    write (``apply_write`` + ``QueryService.register``) is followed by one
    wire read that must rebuild what the write invalidated."""
    state = workload.setup(workload.prepare(ServedState, durable=True,
                                            private=True))
    collection = state.collection
    try:
        wal = state.service.database.durable_store.wal
        query = distinct_queries(workload)[0]
        write_s, read_s, wal_bytes, wal_appends, changed_bytes = [], [], 0, 0, 0
        for number in range(writes):
            before = (wal.size, wal.appends)
            versions = [g.version for g in collection]
            write_s.append(_timed(lambda: state.run(Op("write", number, ""))))
            wal_bytes += wal.size - before[0]
            wal_appends += wal.appends - before[1]
            changed_bytes += sum(
                len(collection_to_text(GraphCollection([g])).encode("utf-8"))
                for g, version in zip(collection, versions)
                if g.version != version)
            read_s.append(_timed(lambda: state.query(query.text)))
        user_bytes = len(collection_to_text(collection).encode("utf-8"))
    finally:
        closed = state.close()
    return {
        "storage.write_ms_p50": _ms(statistics.median(write_s)),
        "storage.wal_bytes_per_write": wal_bytes / writes,
        "storage.wal_appends_per_write": wal_appends / writes,
        "storage.write_amplification": wal_bytes / changed_bytes,
        "storage.checkpoint_ms": _ms(closed["checkpoint_s"]),
        "storage.recover_ms": _ms(closed["recover_s"]),
        "storage.file_bytes_per_user_byte": closed["file_bytes"] / user_bytes,
        "storage.recovered_ok": closed["recovered_ok"],
        "service.read_after_write_ms_p50": _ms(statistics.median(read_s)),
    }


def probe_core(workload: Workload) -> Dict[str, float]:
    """``GraphDatabase.select`` (the collection scan / filter+verify
    path, no service), step-budgeted so big graphs stay bounded."""
    database = GraphDatabase()
    database.register(workload.document, workload.collection)
    queries = _sample(distinct_queries(workload), 16)
    seconds = _timed(lambda: [
        database.select(workload.document, query.pattern, exhaustive=False,
                        context=ExecutionContext(max_steps=SELECT_STEP_BUDGET))
        for query in queries])
    return {"core.select_ms_per_query": _ms(seconds) / len(queries)}


def probe_sqlbaseline(workload: Workload) -> Dict[str, float]:
    """The Fig. 4.21 comparison arm on the workload's small patterns
    (<= 4 nodes), against every member graph, under the row budget."""
    matchers = [SQLGraphMatcher(graph, join_order="greedy")
                for graph in workload.collection]
    small = [query for query in workload.sql_queries()
             if len(query.pattern.motif.node_names()) <= 4]
    queries = _sample(small, 8)
    rows = 0
    started = time.perf_counter()
    for query in queries:
        for matcher in matchers:
            stats = ExecutionStats()
            try:
                matcher.match(query.pattern, limit=LIMIT, stats=stats,
                              max_rows_examined=SQL_ROW_BUDGET)
            except WorkBudgetExceeded:
                pass
            rows += stats.rows_examined
    seconds = time.perf_counter() - started
    return {"sqlbaseline.ms_per_query": _ms(seconds) / len(queries),
            "sqlbaseline.rows_examined_per_query": rows / len(queries)}


def probe_obs(workload: Workload) -> Dict[str, float]:
    """The program's own tracer: the same matches inside and outside a
    ``tracer().session`` (floor of two runs each, alternating)."""
    matchers = [GraphMatcher(graph) for graph in workload.collection]
    queries = _sample(distinct_queries(workload), 60)

    def run() -> None:
        for query in queries:
            for matcher in matchers:
                matcher.match(query.pattern, OPTIONS)

    plain, traced, spans = [], [], 0
    for _ in range(2):
        plain.append(_timed(run))
        collector = SpanCollector()
        with tracer().session(collector):
            traced.append(_timed(run))
        spans = len(collector.spans)
    return {"obs.trace_overhead_ratio": min(traced) / min(plain),
            "obs.spans_per_query": spans / len(queries)}


def trace_path(workload: Workload) -> str:
    return os.path.join(OUT_DIR, f"trace_{workload.name}.jsonl")
