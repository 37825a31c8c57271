"""Serving-path throughput: QueryService under concurrent clients.

Not a paper figure — this tracks the service layer added on top of the
paper's matcher: admission control, the result cache, and per-request
governance.  The experiment drives concurrent clients over a mixed
workload (repeated cacheable queries plus unique ones) and reports
throughput, latency quantiles and cache effectiveness.  The second test
times a cluster fan-out against one shard.
"""

import os
import random
import threading
import time
from typing import List, Optional, Sequence

from repro.datasets import ppi_network
from repro.runtime import Outcome
from repro.service import QueryService, ServiceConfig

#: the paper terminates a query past 1000 answers
HIT_LIMIT = 1000
CLIENTS = 6
REQUESTS_PER_CLIENT = 12
WORKERS = 3

#: text form keeps the requests cacheable end to end
EDGE_TEMPLATE = ('graph P {{ node a <label="{a}">; node b <label="{b}">; '
                 'edge e1 (a, b); }}')


def fmt_ms(seconds: Optional[float]) -> str:
    return "-" if seconds is None else f"{seconds * 1000:.1f}"


def print_table(title: str, headers: Sequence[str], rows) -> None:
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [max([len(h)] + [len(row[i]) for row in rows])
              for i, h in enumerate(headers)]
    print(f"\n== {title} ==")
    for row in [list(headers)] + rows:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))


def label_pool(graph, k: int = 8) -> List[str]:
    from collections import Counter

    counts = Counter(node.label for node in graph.nodes())
    return [label for label, _count in counts.most_common(k)]


def make_service() -> QueryService:
    service = QueryService(ServiceConfig(
        workers=WORKERS, queue_depth=CLIENTS * REQUESTS_PER_CLIENT,
        per_client=REQUESTS_PER_CLIENT, default_timeout=10.0,
        default_max_results=HIT_LIMIT))
    service.register("data", ppi_network())
    return service


def run_experiment():
    service = make_service()
    graph = ppi_network()
    labels = label_pool(graph)
    rng = random.Random(17)
    # one hot query (every client repeats it => cache hits) plus a
    # per-client tail of mostly-unique label pairs (cache misses)
    hot = EDGE_TEMPLATE.format(a=labels[0], b=labels[1])
    responses = []
    lock = threading.Lock()

    def client(index):
        mine = []
        for j in range(REQUESTS_PER_CLIENT):
            if j % 2 == 0:
                text = hot
            else:
                a, b = rng.sample(labels, 2)
                text = EDGE_TEMPLATE.format(a=a, b=b)
            mine.append(service.execute(text, client=f"bench{index}"))
        with lock:
            responses.extend(mine)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stats = service.shutdown()
    return responses, stats


def report(responses, stats):
    hits = [r for r in responses if r.cache == "hit"]
    executed = [r for r in responses if not r.rejected]
    latency = stats["latency"]
    print_table(
        "Service throughput — "
        f"{CLIENTS} clients x {REQUESTS_PER_CLIENT} requests, "
        f"{WORKERS} workers (PPI)",
        ["requests", "rejected", "cache hits", "hit rate",
         "p50 ms", "p95 ms", "max ms"],
        [(
            len(responses), stats["rejected"], len(hits),
            f"{len(hits) / max(1, len(executed)):.0%}",
            fmt_ms(latency.get("p50")), fmt_ms(latency.get("p95")),
            fmt_ms(latency.get("max")),
        )],
    )


def test_service_throughput(capsys):
    responses, stats = run_experiment()

    total = CLIENTS * REQUESTS_PER_CLIENT
    assert len(responses) == total
    assert stats["admitted"] + stats["rejected"] == stats["submitted"]
    executed = [r for r in responses if not r.rejected]
    assert executed
    for response in executed:
        assert response.outcome.status in (Outcome.COMPLETE,
                                           Outcome.TRUNCATED)
    hits = [r for r in responses if r.cache == "hit"]
    assert hits, "the repeated hot query produced no cache hits"

    with capsys.disabled():
        report(responses, stats)


#: 4-node carbon chain over the molecule collection: heavy enough that
#: per-shard execution, not the wire, dominates each fan-out
CHAIN_QUERY = ('graph P { node a <label="C">; node b <label="C">; '
               'node c <label="C">; node d <label="C">; '
               'edge e1 (a, b); edge e2 (b, c); edge e3 (c, d); }')
CLUSTER_SHARDS = 4
CLUSTER_QUERIES = 4


def _cluster_soak(cluster, queries=CLUSTER_QUERIES):
    """Mean per-fan-out latency with every cache off (pure execution)."""
    coordinator = cluster.coordinator(timeout=120.0)
    warm = coordinator.query(CHAIN_QUERY, limit=100000, use_cache=False)
    assert warm.failed == 0, f"warm-up lost shards: {warm.outcome}"
    rows = len(warm.results)
    started = time.monotonic()
    for _ in range(queries):
        reply = coordinator.query(CHAIN_QUERY, limit=100000,
                                  use_cache=False)
        assert reply.failed == 0
        assert len(reply.results) == rows  # sharding never changes answers
    return (time.monotonic() - started) / queries, rows


def test_cluster_throughput_vs_single_shard(capsys):
    """A 4-shard split vs the same collection on one server.

    Shards are separate OS processes, so the fan-out's speedup is real
    process parallelism — which needs cores to run on.  With >= 4 CPUs
    the acceptance bar is a >= 2x throughput gain; on smaller hosts the
    same run instead bounds the coordinator's overhead (a 1-core box
    physically cannot run four matchers at once, and a benchmark that
    pretended otherwise would be measuring noise).
    """
    from repro.cluster import launch_cluster
    from repro.datasets.molecules import molecule_collection

    collection = molecule_collection(num_molecules=120, seed=31)
    with launch_cluster(collection, num_shards=1) as single:
        single_latency, single_rows = _cluster_soak(single)
    with launch_cluster(collection, num_shards=CLUSTER_SHARDS) as sharded:
        sharded_latency, sharded_rows = _cluster_soak(sharded)

    assert single_rows == sharded_rows
    speedup = single_latency / sharded_latency
    cores = os.cpu_count() or 1
    with capsys.disabled():
        print_table(
            f"Cluster scatter-gather — {len(collection)} molecules, "
            f"{CLUSTER_QUERIES} fan-outs, {cores} CPU core(s)",
            ["layout", "per-query", "rows", "speedup"],
            [("1 shard", fmt_ms(single_latency), single_rows, "1.00x"),
             (f"{CLUSTER_SHARDS} shards",
              fmt_ms(sharded_latency), sharded_rows,
              f"{speedup:.2f}x")],
        )
    if cores >= CLUSTER_SHARDS:
        assert speedup >= 2.0, (
            f"4-shard split only {speedup:.2f}x faster with "
            f"{cores} cores available")
    else:
        # no parallel hardware: the split must still not cost much —
        # fan-out + merge overhead bounded at 50% over one server
        assert sharded_latency <= single_latency * 1.5, (
            f"fan-out overhead too high on {cores} core(s): "
            f"{sharded_latency * 1000:.1f}ms vs "
            f"{single_latency * 1000:.1f}ms single-shard")
