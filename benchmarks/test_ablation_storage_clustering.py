"""Ablation — physical layout of graph data (Section 7 direction).

The paper asks *"how to decompose the large graph into small chunks and
preserve locality?"*.  We compare two page layouts of the same graph:
node records written in (scrambled) insertion order vs BFS cluster
order, measuring the average number of distinct pages a radius-1
neighborhood touches — a direct proxy for page faults per traversal
step in a disk-resident system.
"""

import random
from collections import OrderedDict

from harness import print_table
from repro.datasets import erdos_renyi_graph, ppi_network
from repro.storage import GraphStore


def scrambled_copy(graph, seed=0):
    """The same graph with node declaration order randomized."""
    from repro.core import Graph

    ids = graph.node_ids()
    random.Random(seed).shuffle(ids)
    out = Graph(graph.name, directed=graph.directed)
    for node_id in ids:
        node = graph.node(node_id)
        out.add_node(node_id, **dict(node.tuple.items()))
    for edge in graph.edges():
        out.add_edge(edge.source, edge.target, edge_id=edge.id)
    return out


class PageLRU:
    """An LRU of page ids: the hits of a *capacity*-frame buffer pool."""

    def __init__(self, capacity):
        self.capacity, self.hits, self.reads = capacity, 0, 0
        self._frames = OrderedDict()

    def read(self, page_no):
        self.reads += 1
        if page_no in self._frames:
            self.hits += 1
            self._frames.move_to_end(page_no)
        else:
            self._frames[page_no] = None
            if len(self._frames) > self.capacity:
                self._frames.popitem(last=False)


def _traversal_hit_rate(store, graph, capacity=6, walk_length=4000, seed=3):
    """Hit rate of a random-walk neighborhood traversal through a small
    LRU of pages over the store's node->page placement."""
    lru = PageLRU(capacity)
    rng = random.Random(seed)
    node_ids = graph.node_ids()
    current = node_ids[rng.randrange(len(node_ids))]
    placement = store._node_pages
    for _ in range(walk_length):
        lru.read(placement[current])
        neighbors = graph.all_neighbors(current)
        for neighbor in neighbors:
            lru.read(placement[neighbor])
        current = (neighbors[rng.randrange(len(neighbors))]
                   if neighbors else node_ids[rng.randrange(len(node_ids))])
    return lru.hits / lru.reads


def run_experiment(tmp_dir):
    datasets = [
        ("erdos-renyi n=2000 m=10000", scrambled_copy(
            erdos_renyi_graph(2000, 10000, seed=6))),
        ("ppi n=3112 m=12519", scrambled_copy(ppi_network())),
    ]
    rows = []
    for name, graph in datasets:
        spans = {}
        hit_rates = {}
        for policy in ("insertion", "bfs"):
            path = f"{tmp_dir}/{abs(hash(name)) % 10 ** 6}_{policy}.db"
            with GraphStore(path, clustering=policy) as store:
                store.save(graph)
                spans[policy] = store.neighborhood_page_span(graph)
                hit_rates[policy] = _traversal_hit_rate(store, graph)
        rows.append((
            name,
            f"{spans['insertion']:.2f}",
            f"{spans['bfs']:.2f}",
            f"{spans['insertion'] / spans['bfs']:.2f}x",
            f"{hit_rates['insertion']:.1%}",
            f"{hit_rates['bfs']:.1%}",
        ))
    return rows


def report(rows):
    print_table(
        "Ablation: storage clustering (radius-1 page span; buffer-pool "
        "hit rate on a neighborhood walk, 6 frames)",
        ("dataset", "span ins.", "span BFS", "improvement",
         "hit% ins.", "hit% BFS"),
        rows,
    )


def test_storage_clustering_ablation(benchmark, tmp_path):
    rows = run_experiment(str(tmp_path))
    report(rows)
    for row in rows:
        assert float(row[2]) <= float(row[1]) * 1.02, row
        # clustering never hurts the buffer hit rate
        assert float(row[5].rstrip("%")) >= float(row[4].rstrip("%")) - 1.0, row

    graph = scrambled_copy(erdos_renyi_graph(500, 2500, seed=1))

    def save_bfs():
        path = str(tmp_path / "bench.db")
        import os

        if os.path.exists(path):
            os.remove(path)
        with GraphStore(path, clustering="bfs") as store:
            store.save(graph)

    benchmark(save_bfs)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        report(run_experiment(tmp))
