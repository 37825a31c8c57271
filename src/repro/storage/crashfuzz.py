"""Crash-point fuzzing: kill the write path everywhere, prove recovery.

``python -m repro.storage.crashfuzz --seed 7`` runs a deterministic
mixed save/mutate workload over multi-member documents against a
durable :class:`GraphStore` — full snapshots, member-replace writes of
the one or two members a write changed, and a compaction
(:meth:`GraphStore.checkpoint`) after every
:data:`CHECKPOINT_EVERY`-th save — once per possible crash point: the
:class:`~repro.storage.faults.CrashPoint` injector kills the write path
(torn final write included) after N operations, for every N the
workload performs.  Every append, fsync and rename counts, the
compaction's temp-file write, its fsync, the rename and the directory
fsync included.  After each simulated crash the store is reopened —
which is its recovery — and checked against the **committed-prefix
contract**:

* the recovered documents equal the workload state after exactly *j*
  operations for some ``committed <= j <= attempted`` (a commit whose
  call returned must survive; a commit in flight may land either way;
  nothing else may appear) — no torn graphs, no CRC errors, and no
  document mixing members from before and after a write;
* every recovered :attr:`Graph.version` equals the version the graph
  had when that state was saved (monotone across the crash);
* a checkpoint after recovery compacts the log to at most one frame,
  and a second reopen finds a clean store.

The workload is pure: ``document_at(doc, write)`` rebuilds any
document's members after any write from the seed alone, so the
expected committed prefix never depends on surviving in-memory state —
exactly like the restarted process the harness simulates.

The CI ``crash-recovery-fuzz`` job runs this for a seed matrix and
uploads the JSON report of the failing point on failure.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, List, Optional, Tuple

from ..core.collection import GraphCollection
from ..core.graph import Graph
from .faults import CrashPoint, SimulatedCrash
from .graphstore import GraphStore

#: A crash budget no workload reaches — used to count total operations.
NEVER = 10 ** 9
#: member graphs per workload document
MEMBERS = 3
#: the workload compacts the store after every this many saves
CHECKPOINT_EVERY = 5


class CrashFuzzWorkload:
    """A deterministic mixed write workload over several documents of
    :data:`MEMBERS` member graphs each.

    The op sequence interleaves documents; op ``(doc, k)`` is that
    document's write *k*.  A write advances some members by one
    mutation round (nodes/edges added, an edge removed, attributes
    touched) and persists only those (:meth:`changed_members`), unless
    it changed them all — the first write and every fourth one — which
    saves a full snapshot.
    """

    def __init__(self, seed: int, docs: int = 3, rounds: int = 8,
                 base_nodes: int = 14) -> None:
        self.seed = seed
        self.docs = docs
        self.base_nodes = base_nodes
        #: (document name, write number) per save operation
        self.ops: List[Tuple[str, int]] = []
        counters = {f"doc{d}": 0 for d in range(docs)}
        rng = random.Random(seed)
        for _ in range(docs * rounds):
            doc = f"doc{rng.randrange(docs)}"
            counters[doc] += 1
            self.ops.append((doc, counters[doc]))

    @lru_cache(maxsize=None)
    def state_at(self, doc: str, rounds: int, member: int) -> Graph:
        """One member graph after *rounds* mutation rounds (pure)."""
        index = int(doc[3:])
        key = f"{self.seed}:{index}.{member}"
        rng = random.Random(f"{key}:base")
        graph = Graph(f"{doc}.{member}", directed=index % 2 == 0)
        n = self.base_nodes + index + member
        for i in range(n):
            graph.add_node(f"v{i}", label=f"L{i % 4}",
                           weight=rng.random() * 10)
        for i in range(n - 1):
            graph.add_edge(f"v{i}", f"v{i + 1}", kind="chain")
        for round_no in range(1, rounds + 1):
            mrng = random.Random(f"{key}:{round_no}")
            added = graph.add_node(f"r{round_no}",
                                   label=f"L{mrng.randrange(4)}",
                                   round=round_no)
            anchors = sorted(graph.node_ids())
            for _ in range(2):
                graph.add_edge(added.id, mrng.choice(anchors),
                               weight=float(round_no))
            removable = [e.id for e in graph.edges()
                         if e.tuple.get("kind") == "chain"]
            if removable:
                graph.remove_edge(mrng.choice(removable))
        return graph

    def changed_members(self, doc: str, write: int) -> Tuple[int, ...]:
        """The members write *write* of *doc* changes: all of them on the
        first write and on every fourth, two on the others of the form
        4k + 2, else one."""
        if write == 1 or write % 4 == 0:
            return tuple(range(MEMBERS))
        count = 2 if write % 4 == 2 else 1
        rng = random.Random(f"{self.seed}:{doc}:write{write}")
        return tuple(sorted(rng.sample(range(MEMBERS), count)))

    def document_at(self, doc: str, write: int) -> List[Graph]:
        """The document's members once its write *write* is durable."""
        rounds = [0] * MEMBERS
        for later in range(2, write + 1):
            for member in self.changed_members(doc, later):
                rounds[member] += 1
        return [self.state_at(doc, round_no, member)
                for member, round_no in enumerate(rounds)]

    def expected_after(self, op_count: int) -> Dict[str, List[Graph]]:
        """The committed documents once *op_count* ops are durable."""
        latest: Dict[str, int] = {}
        for doc, write in self.ops[:op_count]:
            latest[doc] = write
        return {doc: self.document_at(doc, write)
                for doc, write in latest.items()}

    def save(self, store: GraphStore, doc: str, write: int) -> None:
        """Persist one op: a full snapshot when it changed every member,
        else member-replace records for the members it changed."""
        changed = self.changed_members(doc, write)
        members = self.document_at(doc, write)
        if len(changed) == MEMBERS:
            store.save_document(doc, members)
        else:
            store.save_members(doc, [(m, members[m]) for m in changed])

    def run(self, store: GraphStore,
            progress: Optional[Dict[str, int]] = None) -> None:
        """Apply every op, compacting the store after every
        :data:`CHECKPOINT_EVERY`-th save.  *progress* counts the saves
        begun (``attempted``) and the saves that returned
        (``committed``), so a crash tells which state may be durable."""
        progress = {} if progress is None else progress
        progress.update(attempted=0, committed=0)
        for doc, write in self.ops:
            progress["attempted"] += 1
            self.save(store, doc, write)
            progress["committed"] += 1
            if progress["committed"] % CHECKPOINT_EVERY == 0:
                store.checkpoint()


@dataclass
class FuzzReport:
    """Outcome of one fuzzing sweep (JSON-serializable for CI)."""

    seed: int
    min_points: int = 0
    total_ops: int = 0
    points_run: int = 0
    failures: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Every point passed, and the workload reached *min_points*
        crashable operations (a ``max_points`` cap on the sweep is
        allowed and reported as ``capped``)."""
        return (self.points_run > 0 and not self.failures
                and self.total_ops >= self.min_points)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "min_points": self.min_points,
            "total_ops": self.total_ops,
            "points_run": self.points_run,
            "capped": self.points_run < self.total_ops,
            "ok": self.ok,
            "failures": self.failures,
        }


def _documents_equal(recovered: Dict[str, GraphCollection],
                     expected: Dict[str, List[Graph]]) -> bool:
    if set(recovered) != set(expected):
        return False
    for name, graphs in expected.items():
        back = list(recovered[name])
        if len(back) != len(graphs) or not all(
                got.equals(graph) and got.version == graph.version
                for got, graph in zip(back, graphs)):
            return False
    return True


def run_crash_point(workload: CrashFuzzWorkload, directory: str,
                    point: int, fsync: str = "commit") -> Optional[str]:
    """One crash → recover → verify cycle; returns an error or None."""
    path = os.path.join(directory, "store.db")
    crash = CrashPoint(point, tear=True,
                       seed=workload.seed * 100003 + point)
    progress = {"attempted": 0, "committed": 0}
    try:
        store = GraphStore(path, fsync=fsync, crashpoint=crash)
        workload.run(store, progress)
    except SimulatedCrash:
        pass
    # a save in flight when the crash hit may be durable or not — both
    # are legal; a save that returned must be durable
    committed, attempted = progress["committed"], progress["attempted"]
    try:
        recovered_store = GraphStore(path, fsync="never")
    except Exception as exc:
        return f"reopen after crash at op {point} failed: {exc!r}"
    try:
        documents = recovered_store.load_documents()
        matched = None
        for j in range(committed, attempted + 1):
            if _documents_equal(documents, workload.expected_after(j)):
                matched = j
                break
        if matched is None:
            return (
                f"crash at op {point}: recovered state matches no "
                f"committed prefix in [{committed}, {attempted}] "
                f"(docs: { {k: len(v) for k, v in documents.items()} })"
            )
        recovered_store.checkpoint()
        if len(recovered_store.wal.frames()) > 1:
            return (f"crash at op {point}: compaction left more than one "
                    "frame")
        recovered_store.close()
        clean = GraphStore(path, fsync="never")
        if not clean.recovery.clean:
            return (f"crash at op {point}: second reopen still had to "
                    f"repair: {clean.recovery.to_dict()}")
        if not _documents_equal(clean.load_documents(),
                                workload.expected_after(matched)):
            return f"crash at op {point}: state changed across clean reopen"
        clean.close()
    except Exception as exc:
        return f"verification after crash at op {point} raised: {exc!r}"
    return None


def fuzz(seed: int, min_points: int = 200,
         directory: Optional[str] = None,
         fsync: str = "commit", verbose: bool = True,
         docs: int = 3, rounds: int = 8, base_nodes: int = 14,
         max_points: Optional[int] = None) -> FuzzReport:
    """Sweep every crash point of a workload sized to *min_points*.

    *docs*/*rounds*/*base_nodes* shape the starting workload (the round
    count doubles until the workload has *min_points* crashable ops);
    *max_points* bounds the sweep for quick test runs — a bounded sweep
    is reported as such, never as full coverage.  A workload that stops
    growing below *min_points* fails the report.
    """
    report = FuzzReport(seed=seed, min_points=min_points)
    workload = CrashFuzzWorkload(seed, docs=docs, rounds=rounds,
                                 base_nodes=base_nodes)
    own_tmp = directory is None
    root = directory or tempfile.mkdtemp(prefix="crashfuzz-")
    try:
        while True:
            count_dir = os.path.join(root, "count")
            os.makedirs(count_dir, exist_ok=True)
            counter = CrashPoint(NEVER)
            store = GraphStore(os.path.join(count_dir, "store.db"),
                               fsync=fsync, crashpoint=counter)
            workload.run(store)
            store.close(checkpoint=False)
            shutil.rmtree(count_dir)
            if counter.ops >= min_points or rounds >= 64:
                break
            rounds *= 2
            workload = CrashFuzzWorkload(seed, docs=docs, rounds=rounds,
                                         base_nodes=base_nodes)
        report.total_ops = counter.ops
        if verbose and counter.ops < min_points:
            print(f"crashfuzz seed={seed}: the workload stopped growing at "
                  f"{counter.ops} crashable ops, below --min-points "
                  f"{min_points}", flush=True)
        sweep_to = report.total_ops
        if max_points is not None and max_points < sweep_to:
            sweep_to = max_points
            if verbose:
                print(f"crashfuzz seed={seed}: sweep capped at "
                      f"{sweep_to}/{report.total_ops} points", flush=True)
        if verbose:
            print(f"crashfuzz seed={seed}: {len(workload.ops)} saves, "
                  f"{report.total_ops} crashable ops", flush=True)
        for point in range(1, sweep_to + 1):
            point_dir = os.path.join(root, f"p{point}")
            os.makedirs(point_dir, exist_ok=True)
            error = run_crash_point(workload, point_dir, point, fsync)
            report.points_run += 1
            if error is not None:
                report.failures.append({"point": point, "error": error})
                if verbose:
                    print(f"FAIL {error}", flush=True)
            shutil.rmtree(point_dir, ignore_errors=True)
            if verbose and point % 50 == 0:
                print(f"  ... {point}/{report.total_ops} points, "
                      f"{len(report.failures)} failure(s)", flush=True)
    finally:
        if own_tmp:
            shutil.rmtree(root, ignore_errors=True)
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.storage.crashfuzz",
        description="crash-point fuzzing of the durable storage layer",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="workload + tear-point seed")
    parser.add_argument("--min-points", type=int, default=200,
                        help="grow the workload until it has at least "
                             "this many crashable operations")
    parser.add_argument("--max-points", type=int, default=None,
                        help="bound the sweep (quick runs; the report "
                             "notes the cap)")
    parser.add_argument("--fsync", default="commit",
                        choices=("commit", "never"),
                        help="fsync policy under test")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write a JSON report here")
    args = parser.parse_args(argv)
    report = fuzz(args.seed, min_points=args.min_points, fsync=args.fsync,
                  max_points=args.max_points)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2)
    status = "PASS" if report.ok else "FAIL"
    print(f"crashfuzz seed={report.seed}: {status} "
          f"({report.points_run} points of {report.total_ops} crashable "
          f"ops, min {report.min_points}, {len(report.failures)} "
          f"failure(s))", flush=True)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
