"""Graph statistics for the cost model of Section 4.4.

The reduction factor of a join is estimated from edge probabilities::

    P(e(u, v)) = freq(e(u, v)) / (freq(u) * freq(v))

where ``freq`` counts occurrences by node label (and label pair for
edges) in the data graph.  These statistics are collected once per graph
and reused across queries, like relational catalog statistics.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Tuple

from ..core.graph import Graph
from .neighborhood import default_label


class GraphStatistics:
    """Label and label-pair frequencies of a data graph."""

    def __init__(self, graph: Graph) -> None:
        self.num_nodes = graph.num_nodes()
        self.num_edges = graph.num_edges()
        self.label_freq: Counter = Counter()
        self.pair_freq: Counter = Counter()
        labels: Dict[str, Any] = {}
        for node in graph.nodes():
            label = default_label(node)
            labels[node.id] = label
            self.label_freq[label] += 1
        for edge in graph.edges():
            pair = self._pair_key(labels[edge.source], labels[edge.target],
                                  graph.directed)
            self.pair_freq[pair] += 1

    @staticmethod
    def _pair_key(label_a: Any, label_b: Any, directed: bool) -> Tuple[Any, Any]:
        if directed:
            return (label_a, label_b)
        key_a, key_b = sorted(
            (label_a, label_b), key=lambda x: (type(x).__name__, str(x))
        )
        return (key_a, key_b)

    def node_frequency(self, label: Any) -> int:
        """How many data nodes carry the label."""
        return self.label_freq.get(label, 0)

    def edge_frequency(self, label_a: Any, label_b: Any, directed: bool = False) -> int:
        """How many data edges join the two labels."""
        return self.pair_freq.get(self._pair_key(label_a, label_b, directed), 0)

    def edge_probability(
        self,
        label_a: Any,
        label_b: Any,
        directed: bool = False,
    ) -> float:
        """P(e(u, v)) conditioned on the end labels, with smoothing.

        Unlabeled pattern nodes (``label`` None on either side) fall back
        to the global edge density — edges over the n(n-1) ordered node
        pairs of a directed graph, or the n(n-1)/2 unordered pairs of an
        undirected one — so the estimate stays usable for attribute-free
        patterns.
        """
        freq_a = self.node_frequency(label_a)
        freq_b = self.node_frequency(label_b)
        if label_a is None or label_b is None or freq_a == 0 or freq_b == 0:
            pairs = self.num_nodes * (self.num_nodes - 1)
            possible = max(1, pairs if directed else pairs / 2)
            return min(1.0, self.num_edges / possible)
        freq_edge = self.edge_frequency(label_a, label_b, directed)
        if freq_edge == 0:
            # unseen label pair: tiny non-zero probability keeps the cost
            # model ordering stable without claiming impossibility
            return 0.5 / (freq_a * freq_b)
        return min(1.0, freq_edge / (freq_a * freq_b))

    def __repr__(self) -> str:
        return (
            f"GraphStatistics(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"labels={len(self.label_freq)})"
        )
