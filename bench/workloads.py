"""The four benchmark workloads: data, query populations, op lists, drivers.

A workload is a fixed *population* of operations over a fixed data set;
``--seed`` draws the order in which the population arrives (and, for the
served workloads, therefore which requests hit the caches).  The
population itself is drawn once from :data:`POOL_SEED`: redrawing it per
seed moves a pass by +-20% (ppi_clique 5.1-7.4 s over seeds 1-3,
er_subgraph 4.7-7.6 s), ten times the regression bound, so it is part of
the workload definition exactly like the data graph is.

Everything here calls the program through its public functions only.
"""

from __future__ import annotations

import copy
import os
import random
import shutil
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.core import GraphCollection, GroundPattern
from repro.datasets import (
    erdos_renyi_graph,
    molecule_collection,
    ppi_network,
    top_labels,
)
from repro.datasets.queries import (
    clique_query,
    extract_connected_query,
    seeded_clique_query,
)
from repro.lang.compiler import compile_pattern_text
from repro.lang.printer import pattern_to_text
from repro.matching import GraphMatcher, optimized_options
from repro.runtime import Outcome
from repro.service import (
    QueryServer,
    QueryService,
    ServiceClient,
    ServiceConfig,
)
from repro.service.protocol import ProtocolError
from repro.storage.database import GraphDatabase

#: The paper terminates queries with more than 1000 answers.
LIMIT = 1000
#: Seed of the query populations (fixed; see the module docstring).
POOL_SEED = 20080609
#: Scratch space for durable stores, inside the checkout.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

OPTIONS = optimized_options(limit=LIMIT)


class OpFailed(Exception):
    """One operation did not produce a usable answer."""


class Query(NamedTuple):
    text: str
    pattern: GroundPattern


@dataclass(frozen=True)
class Op:
    """One operation of a pass; *key* names its golden answer."""

    kind: str    # "match" (library call) | "read" (wire query) | "write"
    index: int   # position in the query population, or write number
    key: str


def _ground(text: str) -> GroundPattern:
    (ground,) = compile_pattern_text(text).ground()
    return ground


def _query(pattern: GroundPattern) -> Query:
    return Query(pattern_to_text(pattern), pattern)


def zipf_counts(scale_c: float) -> List[int]:
    """Occurrences of rank 1, 2, ... under Zipf(s = 1): round(C / rank),
    down to the last rank that still rounds to one occurrence."""
    return [round(scale_c / rank) for rank in range(1, int(2 * scale_c) + 1)
            if round(scale_c / rank) >= 1]


def apply_write(collection: GraphCollection, number: int) -> None:
    """The write population: write *number* adds one atom and one bond
    to a member graph (the same one for every seed)."""
    graphs = collection.graphs()
    graph = graphs[(number * 7919) % len(graphs)]
    node_id = f"w{number}"
    graph.add_node(node_id, label="CNOSP"[number % 5])
    graph.add_edge(graph.node_ids()[0], node_id, bond="single")


# --------------------------------------------------------------------------
# Drivers: how a pass's operations reach the program
# --------------------------------------------------------------------------


class LibraryState:
    """Cold construction = ``GraphMatcher(graph)``; ops call ``match``."""

    def __init__(self, workload: "Workload", collection: GraphCollection,
                 store_dir: Optional[str] = None) -> None:
        self.workload = workload
        self.matcher = GraphMatcher(collection.first())

    def run(self, op: Op) -> Tuple[int, str]:
        report = self.matcher.match(self.workload.queries[op.index].pattern,
                                    OPTIONS)
        if report.outcome.status is not Outcome.COMPLETE:
            raise OpFailed(f"{op.key}: {report.outcome.status.value}")
        return len(report.mappings), "match"

    def close(self) -> Dict[str, float]:
        return {}


class ServedState:
    """Cold construction = service + server + client up to the first
    answer; reads go over the TCP wire, writes through ``register``."""

    #: matches nothing, but makes the service build every graph's matcher
    WARMUP = 'graph W { node w <label="__warmup__">; }'

    def __init__(self, workload: "Workload", collection: GraphCollection,
                 store_dir: Optional[str] = None) -> None:
        self.workload = workload
        self.collection = collection
        self.store_dir = store_dir
        self.store_path = (os.path.join(store_dir, "store.db")
                           if store_dir else None)
        self.service = QueryService(ServiceConfig(
            workers=1, store_path=self.store_path, fsync="commit"))
        self.service.register(workload.document, collection)
        self.server = QueryServer(self.service, ("127.0.0.1", 0))
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05}, daemon=True)
        self.thread.start()
        host, port = self.server.address
        self.client = ServiceClient(host, port, timeout=60.0,
                                    client_name="bench").connect()
        self.client.ping()
        self.query(self.WARMUP, no_cache=True)

    def query(self, text: str, no_cache: bool = False):
        try:
            reply = self.client.query(text, document=self.workload.document,
                                      limit=LIMIT, no_cache=no_cache)
        except (OSError, ProtocolError) as exc:
            raise OpFailed(f"transport: {exc}") from None
        status = reply.outcome.status
        truncated_at_limit = (status is Outcome.TRUNCATED
                              and len(reply.results) == LIMIT)
        if not reply.ok or not (status is Outcome.COMPLETE
                                or truncated_at_limit):
            raise OpFailed(f"{status.value}: {reply.error}")
        return reply

    def run(self, op: Op) -> Tuple[int, str]:
        if op.kind == "write":
            apply_write(self.collection, op.index)
            self.service.register(self.workload.document, self.collection)
            return self.service.document_version(self.workload.document), "write"
        reply = self.query(self.workload.queries[op.index].text)
        return len(reply.results), reply.cache

    def close(self) -> Dict[str, float]:
        """Stop everything; with a store, checkpoint, reopen it cold, check
        every acknowledged graph version came back, and drop it."""
        self.client.close()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10.0)
        if self.thread.is_alive():
            raise RuntimeError("server thread did not stop")
        if self.store_path is None:
            self.service.shutdown()
            return {}
        try:
            return self._verify_durability()
        finally:
            shutil.rmtree(self.store_dir, ignore_errors=True)

    def _verify_durability(self) -> Dict[str, float]:
        acknowledged = {g.name: g.version for g in self.collection}
        started = time.perf_counter()
        self.service.database.checkpoint()
        checkpoint_s = time.perf_counter() - started
        self.service.shutdown()
        file_bytes = os.path.getsize(self.store_path)
        started = time.perf_counter()
        reopened = GraphDatabase()
        recovery = reopened.attach_durable(self.store_path)
        recover_s = time.perf_counter() - started
        try:
            recovered = {g.name: g.version
                         for g in reopened.doc(self.workload.document)}
        finally:
            reopened.close_store()
        return {"recovered_ok": float(recovery.clean
                                      and recovered == acknowledged),
                "checkpoint_s": checkpoint_s, "recover_s": recover_s,
                "file_bytes": float(file_bytes)}


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


class Workload:
    """Data + query population + the seeded op list of one pass."""

    name = ""
    document = "data"
    state_class = LibraryState
    durable = False
    mutates = False

    def __init__(self, seed: int = 1, scale: float = 1.0) -> None:
        self.scale = scale
        started = time.perf_counter()
        self.collection: GraphCollection = self.build_data()
        self.queries: List[Query] = self.build_queries(random.Random(POOL_SEED))
        self.ops: List[Op] = self.build_ops(random.Random(seed))
        self.gen_s = time.perf_counter() - started

    def scaled(self, size: int) -> int:
        return max(1, round(size * self.scale))

    def build_data(self) -> GraphCollection:
        raise NotImplementedError

    def build_queries(self, rng: random.Random) -> List[Query]:
        raise NotImplementedError

    def build_ops(self, rng: random.Random) -> List[Op]:
        """Library workloads: every query once, in seeded order (a
        reduced scale takes every n-th query of the same population)."""
        ops = [Op("match", i, f"q{i}")
               for i in range(0, len(self.queries), round(1 / self.scale))]
        rng.shuffle(ops)
        return ops

    def sql_queries(self) -> List[Query]:
        """The queries the SQL comparison arm can translate."""
        return self.queries

    def golden_ops(self) -> Iterator[Tuple[str, GraphCollection, Optional[Query]]]:
        """Every (key, data, query) whose answer the golden file holds,
        for any seed; a write has no query.  Consume one at a time."""
        for op in sorted(set(self.ops), key=lambda op: op.index):
            yield op.key, self.collection, self.queries[op.index]

    # -- one pass ---------------------------------------------------------

    def prepare(self, state_class=None, durable: Optional[bool] = None,
                private: bool = False):
        """Untimed per-pass inputs: the data (a private copy when the pass
        mutates it) and a fresh store directory when it is durable."""
        collection = (copy.deepcopy(self.collection)
                      if self.mutates or private else self.collection)
        store_dir = None
        if self.durable if durable is None else durable:
            os.makedirs(OUT_DIR, exist_ok=True)
            store_dir = tempfile.mkdtemp(prefix="store-", dir=OUT_DIR)
        return state_class or self.state_class, collection, store_dir

    def setup(self, prepared):
        """The timed cold construction of the program state."""
        state_class, collection, store_dir = prepared
        return state_class(self, collection, store_dir)



class PpiClique(Workload):
    """Paper Figs. 4.20/4.21: clique queries (sizes 2-7) on the PPI network
    straight into GraphMatcher.match; matching does all the work,
    lang/service/storage none."""
    name = "ppi_clique"
    SIZES = (2, 3, 4, 5, 6, 7)
    PER_SIZE = 80

    def build_data(self) -> GraphCollection:
        return GraphCollection([ppi_network()], name=self.document)

    def build_queries(self, rng: random.Random) -> List[Query]:
        # the paper's recipe, as benchmarks/harness.ppi_clique_workload:
        # half random over the frequency-weighted top-40 labels, half
        # seeded from real cliques
        graph = self.collection.first()
        counts = Counter(node.label for node in graph.nodes())
        weighted: List[str] = []
        for label in top_labels(graph, 40):
            weighted.extend([label] * max(1, counts[label] // 10))
        queries: List[Query] = []
        for size in self.SIZES:
            for _ in range(self.PER_SIZE // 2):
                queries.append(_query(clique_query(size, weighted, rng)))
            for _ in range(self.PER_SIZE - self.PER_SIZE // 2):
                seeded = seeded_clique_query(graph, size, rng)
                if seeded is not None:  # large cliques can escape the search
                    queries.append(_query(seeded))
        return queries


class ErSubgraph(Workload):
    """Paper Figs. 4.22/4.23: connected-subgraph queries (sizes 4-20) on an
    Erdos-Renyi graph; same layer as ppi_clique but retrieval and profile
    pruning dominate and search is near zero."""
    name = "er_subgraph"
    NODES = 2000
    SIZES = (4, 8, 12, 16, 20)
    PER_SIZE = 56

    def build_data(self) -> GraphCollection:
        graph = erdos_renyi_graph(self.NODES, 5 * self.NODES,
                                  num_labels=100, seed=0)
        return GraphCollection([graph], name=self.document)

    def build_queries(self, rng: random.Random) -> List[Query]:
        graph = self.collection.first()
        return [_query(extract_connected_query(graph, size, rng))
                for size in self.SIZES for _ in range(self.PER_SIZE)]


class ServeZipf(Workload):
    """Client socket to reply: Zipf-repeated small text queries on PPI over
    the TCP wire, working set larger than the result cache; service,
    analysis and lang do over half the work, matching the rest."""
    name = "serve_zipf"
    state_class = ServedState
    POOL = 2000
    ZIPF_C = 450.0
    SHAPES: Sequence[Tuple[int, Sequence[Tuple[int, int]]]] = (
        (2, ((0, 1),)),                                    # edge
        (3, ((0, 1), (1, 2))),                             # 2-path
        (3, ((0, 1), (1, 2), (0, 2))),                     # triangle
        (4, tuple((a, b) for a in range(4) for b in range(a + 1, 4))),
    )

    def build_data(self) -> GraphCollection:
        return GraphCollection([ppi_network()], name=self.document)

    def build_queries(self, rng: random.Random) -> List[Query]:
        labels = top_labels(self.collection.first(), 40)
        texts: Dict[str, None] = {}
        while len(texts) < self.POOL:
            size, edges = self.SHAPES[len(texts) % len(self.SHAPES)]
            lines = ["graph P {"]
            lines += [f'  node u{i} <label="{rng.choice(labels)}">;'
                      for i in range(size)]
            lines += [f"  edge e{j} (u{a}, u{b});"
                      for j, (a, b) in enumerate(edges)]
            texts["\n".join(lines + ["}"])] = None
        return [Query(text, _ground(text)) for text in texts]

    def build_ops(self, rng: random.Random) -> List[Op]:
        """An exact Zipf(1.0) multiset over the population's ranks, in
        seeded order (rank r is always the same text)."""
        ops = [Op("read", rank, f"t{rank}")
               for rank, count in enumerate(zipf_counts(self.ZIPF_C * self.scale))
               for _ in range(count)]
        rng.shuffle(ops)
        return ops


class UpdateMix(Workload):
    """Writes beside reads on a durable molecule collection: every 10th op is
    a WAL-committed document save that invalidates the caches; storage,
    index rebuild and the per-graph scan do the work."""
    name = "update_mix"
    document = "mols"
    state_class = ServedState
    durable = True
    mutates = True
    MOLECULES = 60
    OPS = 300
    WRITE_EVERY = 10

    def build_data(self) -> GraphCollection:
        return molecule_collection(self.MOLECULES, name=self.document)

    def build_queries(self, rng: random.Random) -> List[Query]:
        # ring-with-side-chain variants (datasets.ring_with_side_chain_pattern)
        texts = [
            f'graph P {{ node r1 <label="{a}">; node r2 <label="{b}">; '
            f'node s <label="{s}">; edge ring (r1, r2) <bond="aromatic">; '
            f"edge branch (r1, s); }}"
            for s in "CNOSP" for a in "CN" for b in "CN"]
        return [Query(text, _ground(text)) for text in texts]

    def sql_queries(self) -> List[Query]:
        # the V/E schema of the SQL arm has no edge attributes
        texts = [query.text.replace(' <bond="aromatic">', "")
                 for query in self.queries]
        return [Query(text, _ground(text)) for text in texts]

    def golden_ops(self) -> Iterator[Tuple[str, GraphCollection, Optional[Query]]]:
        shadow = copy.deepcopy(self.collection)
        writes = self.scaled(self.OPS) // self.WRITE_EVERY
        for done in range(writes + 1):
            for text, query in enumerate(self.queries):
                yield f"r{text}@{done}", shadow, query
            if done < writes:
                apply_write(shadow, done)
                yield f"w{done}", shadow, None

    def build_ops(self, rng: random.Random) -> List[Op]:
        """Writes sit at fixed positions with fixed content.  The reads are
        an exact Zipf(1.0) multiset dealt round-robin over the intervals
        between writes, so every seed sees the same texts (hence the same
        number of cache misses) in each interval and only their order
        within it is drawn; a read's answer depends only on
        (text, writes so far)."""
        total = self.scaled(self.OPS)
        writes = total // self.WRITE_EVERY
        counts = zipf_counts((total - writes) / 3.6)
        reads = [rank for rank, count in enumerate(counts[:len(self.queries)])
                 for _ in range(count)]
        ops: List[Op] = []
        for done in range(writes + 1):
            interval = reads[done::writes + 1]
            rng.shuffle(interval)
            ops += [Op("read", text, f"r{text}@{done}") for text in interval]
            if done < writes:
                ops.append(Op("write", done, f"w{done}"))
        return ops


WORKLOADS = {cls.name: cls
             for cls in (PpiClique, ErSubgraph, ServeZipf, UpdateMix)}
