"""The one benchmark command (contract: BENCHMARK.json; design: bench/README.md).

    python3 bench/run.py --workload ppi_clique --seed 1 --seconds 30 --trace 0

prints one ``workload/name value unit`` line per metric and, last, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Without
``--workload`` every workload runs in turn, each in its own process.

A run times K identical passes over one seeded op list.  Op *i* is the
same work in every pass, so its latency is the *floor* (minimum) over
the passes: the sandbox's slow phases last tens of seconds and only ever
add time, which a median over one run inherits and a floor sheds.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit("bench/run.py: no src/repro beside bench/ - nothing to measure")
if __name__ == "__main__":
    # the script directory would shadow the stdlib's ``trace`` module
    sys.path[0] = ROOT
elif ROOT not in sys.path:
    sys.path.insert(0, ROOT)
sys.path.insert(1, os.path.join(ROOT, "src"))

from repro.core import GraphCollection  # noqa: E402
from repro.matching import GraphMatcher, baseline_options  # noqa: E402
from repro.runtime import ExecutionContext, Outcome  # noqa: E402

from bench import trace  # noqa: E402
from bench.workloads import (  # noqa: E402
    LIMIT,
    OPTIONS,
    POOL_SEED,
    WORKLOADS,
    OpFailed,
    Query,
    ServedState,
    Workload,
)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

GOLDEN_DIR = os.path.join(ROOT, "bench", "golden")
#: Cold constructions timed before each pass (setup_s is their floor).
SETUPS_PER_PASS = 3
#: Step budget of one baseline cross-check query when writing goldens.
CROSS_CHECK_STEPS = 200_000
#: Per-layer counts that must repeat exactly between runs of one seed.
EXACT_COUNTS = (
    "matching.retrieved_ratio", "matching.refined_ratio",
    "matching.refine_pairs_checked_per_query",
    "matching.search_candidates_per_query",
    "matching.search_states_per_query", "matching.search_hit_ratio",
    "matching.answers_per_query", "service.result_cache_hit_ratio",
    "service.plan_cache_hit_ratio", "service.rejected", "service.shed",
    "storage.wal_bytes_per_write", "storage.wal_appends_per_write",
    "storage.write_amplification", "storage.recovered_ok",
    "sqlbaseline.rows_examined_per_query", "obs.spans_per_query",
)


# --------------------------------------------------------------------------
# Timing passes
# --------------------------------------------------------------------------


def calibrate() -> float:
    """A fixed pure-Python kernel (ms): says when the machine, not the
    code under test, was slow."""
    started = time.perf_counter()
    value = 0
    for i in range(150_000):
        value = (value * 31 + i) % 1_000_003
    return (time.perf_counter() - started) * 1e3


@dataclass
class Measurement:
    """What K passes over one op list produced."""

    ops: int
    latencies: List[List[Optional[float]]] = field(default_factory=list)
    classes: List[str] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    pass_s: List[float] = field(default_factory=list)
    calib_ms: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    recovered_ok: bool = True

    def floors(self) -> List[Optional[float]]:
        return op_floors(self.latencies)


def op_floors(latencies: Sequence[Sequence[Optional[float]]]) -> List[Optional[float]]:
    """Per-op minimum over the passes; None where the op ever failed."""
    return [None if None in column else min(column)
            for column in zip(*latencies)]


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def run_passes(
    workload: Workload,
    golden: Optional[Dict[str, int]],
    seconds: Optional[float] = None,
    passes: Optional[int] = None,
    setups: int = SETUPS_PER_PASS,
    run_op: Optional[Callable] = None,
    on_pass_end: Optional[Callable] = None,
) -> Measurement:
    """Time identical passes until *seconds* are used up (at least two),
    or exactly *passes* of them.

    Before each pass the program state is built cold *setups* times (each
    timed; the last one serves the pass), then ``gc.collect();
    gc.freeze()`` with the collector left on.  Everything between passes
    (teardown, durability check, calibration) is untimed.
    """
    run_op = run_op or (lambda state, op: state.run(op))
    result = Measurement(ops=len(workload.ops))
    started = time.perf_counter()
    while True:
        cycle_started = time.perf_counter()
        state = None
        for _ in range(setups):
            if state is not None:
                state.close()
            prepared = workload.prepare()
            gc.collect()
            setup_started = time.perf_counter()
            state = workload.setup(prepared)
            result.setup_s.append(time.perf_counter() - setup_started)
        latencies: List[Optional[float]] = []
        classes: List[str] = []
        gc.collect()
        gc.freeze()
        try:
            pass_started = time.perf_counter()
            for op in workload.ops:
                op_started = time.perf_counter()
                try:
                    count, klass = run_op(state, op)
                    elapsed: Optional[float] = time.perf_counter() - op_started
                    if golden is not None and count != golden[op.key]:
                        raise OpFailed(f"{op.key}: {count} answers, "
                                       f"golden has {golden[op.key]}")
                except OpFailed as exc:
                    elapsed, klass = None, "failed"
                    result.failures.append(str(exc))
                latencies.append(elapsed)
                classes.append(klass)
            result.pass_s.append(time.perf_counter() - pass_started)
        finally:
            gc.unfreeze()
        if on_pass_end is not None:
            on_pass_end(state)
        closed = state.close()
        if closed.get("recovered_ok", 1.0) != 1.0:
            result.recovered_ok = False
        result.latencies.append(latencies)
        result.classes = classes
        result.calib_ms.append(calibrate())
        done = len(result.latencies)
        if passes is not None:
            if done >= passes:
                return result
            continue
        now = time.perf_counter()
        if done >= 2 and now + (now - cycle_started) > started + seconds:
            return result


def check_percentile_classes(classes: Sequence[str], floors: Sequence[float],
                             margin: float = 5.0, jump: float = 2.0) -> None:
    """Refuse a mix whose p50 or p95 sits on a knife edge.

    Op classes (op kind / cache verdict) are ordered by median latency;
    where two neighbours differ by more than *jump*x there is an edge at
    the cumulative share of the faster classes.  p50 and p95 must each
    lie at least *margin* percentile points away from every edge, or a
    one-point shift in the mix would move them across classes.
    """
    by_class: Dict[str, List[float]] = {}
    for klass, value in zip(classes, floors):
        by_class.setdefault(klass, []).append(value)
    ordered = sorted(by_class.items(),
                     key=lambda item: statistics.median(item[1]))
    below = 0
    for (name, values), (next_name, next_values) in zip(ordered, ordered[1:]):
        below += len(values)
        if statistics.median(next_values) <= jump * statistics.median(values):
            continue
        edge = 100.0 * below / len(floors)
        for pct in (50.0, 95.0):
            if abs(pct - edge) < margin:
                raise AssertionError(
                    f"knife-edge percentile: p{pct:g} is {abs(pct - edge):.1f} "
                    f"points from the {name}/{next_name} boundary at "
                    f"{edge:.1f}% - resize the mix")


def end_to_end(result: Measurement) -> Dict[str, float]:
    finished = [(klass, value)
                for klass, value in zip(result.classes, result.floors())
                if value is not None]
    floors = [value for _klass, value in finished]
    check_percentile_classes([klass for klass, _value in finished], floors)
    ordered = sorted(floors)
    return {
        "setup_s": min(result.setup_s),
        "throughput_qps": len(floors) / sum(floors),
        "latency_p50_ms": percentile(ordered, 50) * 1e3,
        "latency_p95_ms": percentile(ordered, 95) * 1e3,
        # Linux reports ru_maxrss in KiB
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# --------------------------------------------------------------------------
# The traced run
# --------------------------------------------------------------------------


def traced_run(workload: Workload, golden: Dict[str, int]) -> Tuple[Measurement, Dict[str, float]]:
    """Two untraced passes, two traced ones, then the layer probes."""
    untraced = run_passes(workload, golden, passes=2, setups=1)
    untraced_total = sum(v for v in untraced.floors() if v is not None)

    served = workload.state_class is ServedState
    traced_latencies, candidates = [], []
    for _ in range(2):
        rec = trace.Recorder()
        stats: List[Dict] = []
        run = run_passes(
            workload, golden, passes=1, setups=1,
            run_op=lambda state, op: trace.traced_op(state, op, rec),
            on_pass_end=((lambda state: stats.append(state.service.stats()))
                         if served else None))
        traced_latencies += run.latencies
        untraced.failures += run.failures
        candidates.append((run.pass_s[0], rec, rec.self_times(), stats))
    # spans and counts come from the faster of the two traced passes
    _pass_s, rec, self_times, stats = min(candidates, key=lambda c: c[0])
    traced_total = sum(v for v in op_floors(traced_latencies) if v is not None)
    overhead = traced_total / untraced_total

    shares = trace.layer_shares(self_times)
    layer_s = sum(seconds for name, seconds in self_times.items()
                  if not name.startswith("bench."))
    metrics = {
        "bench.trace_overhead_ratio": overhead,
        "bench.layer_coverage_ratio": layer_s / (untraced_total * overhead),
        "bench.share_matching": shares.get("matching", 0.0),
        "bench.share_service": shares.get("service", 0.0),
        "bench.share_storage": shares.get("storage", 0.0),
        "env.gen_s": workload.gen_s,
        "env.calib_ms_min": min(untraced.calib_ms),
        "env.calib_ms_max": max(untraced.calib_ms),
        "env.pass_spread": max(untraced.pass_s) / min(untraced.pass_s),
    }
    if served:
        metrics.update(trace.service_metrics(stats[0],
                                             trace.wire_overheads(rec)))
        metrics.update(trace.probe_matching(workload, rec))
    else:
        metrics.update(trace.matching_metrics(
            self_times, rec, len(workload.ops), untraced_total))
        metrics.update(trace.probe_service_wire(workload, rec))
    for probe in (trace.probe_service_execute, trace.probe_storage,
                  trace.probe_index, trace.probe_lang, trace.probe_core,
                  trace.probe_sqlbaseline, trace.probe_obs):
        metrics.update(probe(workload))
    rec.write(trace.trace_path(workload))
    if metrics["storage.recovered_ok"] != 1.0:
        untraced.recovered_ok = False
    untraced.latencies += traced_latencies  # all four passes were attempted
    return untraced, metrics


# --------------------------------------------------------------------------
# Golden answers
# --------------------------------------------------------------------------


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def load_golden(workload: Workload) -> Dict[str, int]:
    try:
        with open(golden_path(workload.name), encoding="utf-8") as handle:
            answers = json.load(handle)["answers"]
    except FileNotFoundError:
        answers = {}
    missing = [op.key for op in workload.ops if op.key not in answers]
    if missing:
        sys.exit(f"bench/golden/{workload.name}.json lacks {len(missing)} op(s) "
                 f"(first: {missing[0]}); run bench/run.py --write-golden")
    return answers


class ReferenceCounter:
    """Answer counts straight from the matching library: no service, no
    caches; one matcher per member graph, refreshed when it mutates."""

    def __init__(self) -> None:
        self.matchers: Dict[int, GraphMatcher] = {}

    def count(self, collection: GraphCollection, query: Query,
              options=OPTIONS, max_steps: Optional[int] = None) -> Optional[int]:
        """Answers over the collection capped at LIMIT; None when the
        step budget ran out first."""
        total = 0
        for graph in collection:
            matcher = self.matchers.setdefault(id(graph), GraphMatcher(graph))
            context = (ExecutionContext(max_steps=max_steps)
                       if max_steps is not None else None)
            report = matcher.match(query.pattern, options, context=context)
            if report.outcome.status is not Outcome.COMPLETE:
                return None
            total += len(report.mappings)
        return min(total, LIMIT)


def write_golden(name: str) -> None:
    """Store every op's answer count (capped at the limit) and cross-check
    a seeded 10% sample against Algorithm 4.1 alone (``baseline_options``,
    step-budgeted; the ops it could not finish are listed)."""
    workload = WORKLOADS[name](seed=1)
    reference = ReferenceCounter()
    answers: Dict[str, int] = {}
    checked, skipped = 0, []
    rng = random.Random(POOL_SEED)
    for key, collection, query in workload.golden_ops():
        if query is None:  # a write: the document version it must reach
            answers[key] = sum(graph.version for graph in collection)
            continue
        count = reference.count(collection, query)
        assert count is not None
        answers[key] = count
        if rng.random() < 0.10:
            baseline = reference.count(
                collection, query, baseline_options(limit=LIMIT),
                max_steps=CROSS_CHECK_STEPS)
            if baseline is None:
                skipped.append(key)
            elif baseline != count:
                sys.exit(f"{name}/{key}: optimized pipeline found {count} "
                         f"answers, Algorithm 4.1 alone {baseline}")
            else:
                checked += 1
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(golden_path(name), "w", encoding="utf-8") as handle:
        json.dump({"workload": name, "limit": LIMIT, "pool_seed": POOL_SEED,
                   "cross_checked": checked, "cross_check_skipped": skipped,
                   "answers": answers}, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"{name}: {len(answers)} answers, {checked} cross-checked against "
          f"baseline_options, {len(skipped)} over the step budget: {skipped}")


# --------------------------------------------------------------------------
# Output and orchestration
# --------------------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, traced: bool,
            quick: bool) -> int:
    workload = WORKLOADS[name](seed=seed, scale=0.25 if quick else 1.0)
    golden = load_golden(workload)
    if traced:
        result, metrics = traced_run(workload, golden)
        declared = PER_LAYER
    else:
        result = run_passes(workload, golden,
                            seconds=None if quick else seconds,
                            passes=2 if quick else None)
        metrics = end_to_end(result)
        declared = END_TO_END
    if set(metrics) != set(declared):
        sys.exit(f"metrics differ from BENCHMARK.json: "
                 f"{sorted(set(metrics) ^ set(declared))}")
    attempted = result.ops * len(result.latencies)
    failed = len(result.failures)
    for failure in result.failures[:10]:
        print(f"# failed op: {failure}", file=sys.stderr)
    print(f"# {name}: seed {seed}, {result.ops} ops/pass, "
          f"{len(result.latencies)} passes of "
          f"{statistics.median(result.pass_s):.2f} s, "
          f"{len(result.setup_s)} set-ups, classes "
          f"{dict(sorted(Counter(result.classes).items()))}"
          + ("  [--quick: not comparable]" if quick else ""))
    payload = {}
    for metric in declared.values():
        value = metrics[metric["name"]]
        print(f"{name}/{metric['name']} {value!r} {metric['unit']}")
        payload[metric["name"]] = {"value": value, "unit": metric["unit"]}
    print(json.dumps({"correct": failed == 0 and result.recovered_ok,
                      "attempted": attempted, "failed": failed,
                      "metrics": payload}))
    return 0


def hash_seed_env(seed: int) -> Dict[str, str]:
    """The environment in which a run is a function of its seed alone.

    The program iterates over sets of node ids, so its tie-breaks - and
    with them the search counters and the SQL arm's join order - follow
    the interpreter's string-hash seed (er_subgraph: 216.579 vs 216.593
    candidates per query, 54 166 vs 113 424 SQL rows under different
    PYTHONHASHSEEDs).  Pinning it to ``--seed`` makes every count repeat.
    """
    return dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))


def run_child(name: str, seed: int, seconds: float, traced: bool,
              quick: bool = False, echo: bool = True) -> Dict:
    """One workload in a process of its own (so peak RSS is its own)."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(traced))] + (["--quick"] if quick else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT, env=hash_seed_env(seed), check=False)
    lines = done.stdout.strip().splitlines()
    if echo:
        print("\n".join(lines[:-1]))
    if done.returncode != 0 or not lines:
        sys.exit(f"{name} (seed {seed}) exited with {done.returncode}")
    return json.loads(lines[-1])


def run_all(seed: int, seconds: float, traced: bool, quick: bool) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = run_child(name, seed, seconds, traced, quick)
        merged["correct"] = merged["correct"] and child["correct"]
        merged["attempted"] += child["attempted"]
        merged["failed"] += child["failed"]
        for metric, value in child["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def aa_check(runs: int, seconds: float) -> int:
    """The A/A self-check: the same code measured as two interleaved
    sets must agree within the benchmark's own bounds."""
    names = list(WORKLOADS)
    values: Dict[Tuple[str, str, str], List[float]] = {}
    for round_no in range(2 * runs):
        which = "AB"[round_no % 2]
        for name in names if round_no % 4 < 2 else reversed(names):
            child = run_child(name, round_no // 2 + 1, seconds, False,
                              echo=False)
            if not child["correct"]:
                sys.exit(f"{name}: incorrect run in the A/A check")
            for metric, entry in child["metrics"].items():
                values.setdefault((name, metric, which), []).append(
                    entry["value"])
            print(f"# {which}{round_no // 2 + 1} {name} done", flush=True)
    bad = 0
    print("workload/metric  median_A  median_B  gap  spread_A  spread_B  bound")
    for name in names:
        for metric, meta in END_TO_END.items():
            a, b = values[name, metric, "A"], values[name, metric, "B"]
            med_a, med_b = statistics.median(a), statistics.median(b)
            gap = (med_b - med_a) / med_a
            spreads = (spread(a), spread(b)) if runs >= 2 else (0.0, 0.0)
            verdict = ""
            if abs(gap) > meta["bound"]:
                verdict, bad = "  GAP EXCEEDS BOUND", bad + 1
            print(f"{name}/{metric}  {med_a:.6g}  {med_b:.6g}  {gap:+.4f}  "
                  f"{spreads[0]:.4f}  {spreads[1]:.4f}  {meta['bound']}{verdict}")
    for name in names:
        first, second = (run_child(name, 1, seconds, True, echo=False)["metrics"]
                         for _ in range(2))
        for metric in EXACT_COUNTS:
            if first[metric]["value"] != second[metric]["value"]:
                bad += 1
                print(f"{name}/{metric} must repeat exactly: "
                      f"{first[metric]['value']!r} != {second[metric]['value']!r}")
        print(f"# {name}: {len(EXACT_COUNTS)} exact counts compared", flush=True)
    print("A/A check " + ("FAILED" if bad else "passed"))
    return 1 if bad else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the per-layer run")
    parser.add_argument("--quick", action="store_true",
                        help="smoke profile: 2 passes, quarter-size op "
                             "lists; NOT comparable with full runs")
    parser.add_argument("--aa", type=int, metavar="N",
                        help="A/A self-check over two sets of N runs")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.write_golden:
        for name in [args.workload] if args.workload else WORKLOADS:
            write_golden(name)
        return 0
    if args.aa:
        return aa_check(args.aa, args.seconds)
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace), args.quick)
    env = hash_seed_env(args.seed)
    if os.environ.get("PYTHONHASHSEED") != env["PYTHONHASHSEED"]:
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                   args.quick)


if __name__ == "__main__":
    sys.exit(main())
