"""Pinned search counts: the access methods do the same work, not just
return the same answers.

A fixed query set runs through retrieval, pruning, refinement and the
backtracking search; the summed ``RetrievalStats``, ``RefinementStats``
and ``SearchCounters`` are compared with values recorded before the
matcher's inner loops were compiled.  Any change to which candidates
are pruned, refined away or tried moves at least one of them.

The set runs in a subprocess under ``PYTHONHASHSEED=0``: the search
order breaks ties in set iteration order, which follows the string hash
seed, so the counts are only a function of the code under a pinned seed.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from typing import Dict

import pytest

from repro.core import Graph, GroundPattern
from repro.core.motif import SimpleMotif
from repro.core.predicate import AttrRef, BinOp, Literal
from repro.datasets import erdos_renyi_graph, extracted_queries, ppi_network
from repro.datasets.queries import seeded_clique_query
from repro.matching import (
    GraphMatcher,
    MatchOptions,
    RetrievalStats,
    SearchCounters,
    find_matches,
    retrieve_feasible_mates,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Totals of :func:`count_totals` under ``PYTHONHASHSEED=0``, per string
#: hash algorithm (siphash24 before Python 3.11, siphash13 from 3.11 on):
#: the tie-breaks, and so the search counts, follow the hash values.
#: The ``search.*`` and ``mappings`` totals were re-recorded when the
#: search began to find one mapping per pattern automorphism class: the
#: pins below come from a ``limit=3`` search, and which three mappings
#: fill that cap changed (the uncapped answers and the retrieval and
#: refinement totals did not).
EXPECTED = {
    "siphash13": {
        "retrieval.scanned": 10530,
        "retrieval.after_fu": 10530,
        "retrieval.after_local": 7230,
        "refinement.levels_run": 55,
        "refinement.pairs_checked": 1689,
        "refinement.pairs_removed": 565,
        "search.candidates_tried": 162216,
        "search.check_calls": 162456,
        "search.partial_states": 9469,
        "search.results": 8325,
        "mappings": 8325,
    },
    "siphash24": {
        "retrieval.scanned": 10530,
        "retrieval.after_fu": 10530,
        "retrieval.after_local": 7230,
        "refinement.levels_run": 55,
        "refinement.pairs_checked": 1689,
        "refinement.pairs_removed": 565,
        "search.candidates_tried": 165840,
        "search.check_calls": 166080,
        "search.partial_states": 9663,
        "search.results": 8325,
        "mappings": 8325,
    },
}


def _directed_graph(seed: int) -> Graph:
    rng = random.Random(seed)
    graph = Graph("directed", directed=True)
    for i in range(40):
        graph.add_node(f"d{i}", label=rng.choice("AB"))
    ids = graph.node_ids()
    for _ in range(160):
        u, v = rng.choice(ids), rng.choice(ids)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v, weight=rng.randint(0, 9))
    return graph


def _directed_patterns():
    path = SimpleMotif()
    for name, label in (("a", "A"), ("b", "B"), ("c", "A")):
        path.add_node(name, attrs={"label": label})
    path.add_edge("a", "b", name="ab",
                  predicate=BinOp(">", AttrRef(("weight",)), Literal(3)))
    path.add_edge("b", "c", name="bc")
    path.add_edge("c", "a", name="ca")
    loop = SimpleMotif()
    loop.add_node("x", attrs={"label": "B"})
    loop.add_node("y")
    loop.add_edge("x", "y", name="xy")
    loop.add_edge("y", "x", name="yx")
    return [GroundPattern(path), GroundPattern(loop)]


def _add_stats(totals: Dict[str, int], report) -> None:
    retrieval = report.retrieval
    for key in ("scanned", "after_fu", "after_local"):
        totals[f"retrieval.{key}"] += sum(getattr(retrieval, key).values())
    if report.refinement is not None:
        totals["refinement.levels_run"] += report.refinement.levels_run
        totals["refinement.pairs_checked"] += report.refinement.pairs_checked
        totals["refinement.pairs_removed"] += report.refinement.pairs_removed
    _add_search(totals, report.search)
    totals["mappings"] += len(report.mappings)


def _add_search(totals: Dict[str, int], counters: SearchCounters) -> None:
    totals["search.candidates_tried"] += counters.candidates_tried
    totals["search.check_calls"] += counters.check_calls
    totals["search.partial_states"] += counters.partial_states
    totals["search.results"] += counters.results


def count_totals() -> Dict[str, int]:
    """Run the fixed query set and sum every counter it reports."""
    keys = ("retrieval.scanned", "retrieval.after_fu", "retrieval.after_local",
            "refinement.levels_run", "refinement.pairs_checked",
            "refinement.pairs_removed", "search.candidates_tried",
            "search.check_calls", "search.partial_states", "search.results",
            "mappings")
    totals = dict.fromkeys(keys, 0)

    ppi = ppi_network(n=300, m=1200, num_labels=12, seed=5)
    rng = random.Random(11)
    cliques = [q for size in (3, 4, 5) for _ in range(4)
               if (q := seeded_clique_query(ppi, size, rng)) is not None]
    er = erdos_renyi_graph(150, 450, num_labels=6, seed=3)
    extracted = extracted_queries(er, sizes=(4, 6, 8), per_size=3, seed=9)
    directed = _directed_graph(4)

    runs = [(ppi, cliques), (er, extracted), (directed, _directed_patterns())]
    option_sets = [
        MatchOptions(limit=1000),
        MatchOptions(local="none", refine=False, optimize_order=False,
                     limit=1000),
        MatchOptions(local="subgraph", refine=False, exhaustive=False),
    ]
    for graph, queries in runs:
        matcher = GraphMatcher(graph)
        for options in option_sets:
            for query in queries:
                _add_stats(totals, matcher.match(query, options))
        # the unindexed rung of the degradation ladder
        for query in queries:
            stats = RetrievalStats()
            retrieve_feasible_mates(query, graph, local="profile", stats=stats)
            totals["retrieval.after_local"] += sum(stats.after_local.values())

    # pinned nodes go through the same Check as free ones: one pin on
    # every feasible mate, two pins taken from a real answer or not
    for query in cliques:
        first, second = query.node_names()[:2]
        mates = [node_id for node_id in ppi.node_ids()
                 if query.node_matches(first, ppi.node(node_id))]
        answers = find_matches(query, ppi, limit=3)
        pins = [{first: node_id} for node_id in mates[:12]]
        pins += [{first: m.nodes[first], second: m.nodes[second]}
                 for m in answers]
        pins += [{first: m.nodes[second], second: m.nodes[first]}
                 for m in answers]
        for initial in pins:
            counters = SearchCounters()
            mappings = find_matches(query, ppi, initial=initial,
                                    counters=counters)
            _add_search(totals, counters)
            totals["mappings"] += len(mappings)
    return totals


def test_search_counts_are_pinned():
    expected = EXPECTED.get(sys.hash_info.algorithm)
    if expected is None:
        pytest.skip(f"no counts recorded for {sys.hash_info.algorithm}")
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import json; from tests.matching.test_search_counts import "
         "count_totals; print(json.dumps(count_totals()))"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, check=True)
    assert json.loads(done.stdout) == expected
