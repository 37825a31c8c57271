"""Ablation — search-order policies (Section 4.4 design choices).

Compares, on the same refined search spaces:

* ``greedy``      — the paper's cost-model greedy (frequency gammas);
* ``greedy-const``— greedy with a constant reduction factor;
* ``connected``   — connectivity-only order (no cost model);
* ``declared``    — pattern declaration order (no optimization at all).

The cost model's value shows up in the search step: greedy orders keep
the number of partial states visited low.
"""

from typing import Dict, List


from harness import fmt_ms, get_ppi, get_ppi_matcher, mean, ppi_clique_workload, print_table
from repro.matching import (
    CostModel,
    SearchCounters,
    connected_order,
    find_matches,
    greedy_order,
    refine_search_space,
    retrieve_feasible_mates,
)

SIZES = (4, 5, 6)
PER_SIZE = 6


def run_experiment():
    graph = get_ppi()
    matcher = get_ppi_matcher()
    workload = ppi_clique_workload(SIZES, PER_SIZE, seed=2718)
    policies = ("greedy", "greedy-const", "connected", "declared")
    rows: List = []
    for size in SIZES:
        per_policy: Dict[str, List[float]] = {p: [] for p in policies}
        states: Dict[str, List[int]] = {p: [] for p in policies}
        for query in workload[size]:
            space = retrieve_feasible_mates(
                query, graph, profile_index=matcher.profile_index,
                local="profile",
            )
            space = refine_search_space(query.motif, graph, space)
            if not all(space.values()):
                continue
            sizes_map = {u: len(c) for u, c in space.items()}
            orders = {
                "greedy": greedy_order(
                    query.motif, sizes_map,
                    CostModel(query.motif, stats=matcher.stats),
                ),
                "greedy-const": greedy_order(
                    query.motif, sizes_map,
                    CostModel(query.motif, stats=None, gamma_const=0.1),
                ),
                "connected": connected_order(query.motif),
                "declared": query.motif.node_names(),
            }
            import time

            for policy, order in orders.items():
                counters = SearchCounters()
                started = time.perf_counter()
                find_matches(query, graph, candidates=space, order=order,
                             limit=1000, counters=counters)
                per_policy[policy].append(time.perf_counter() - started)
                states[policy].append(counters.partial_states)
        row = [size]
        for policy in policies:
            row.append(fmt_ms(mean(per_policy[policy])))
            row.append(f"{mean(states[policy]):.0f}"
                       if states[policy] else "-")
        rows.append(tuple(row))
    return rows


HEADERS = ("clique size",
           "greedy ms", "states",
           "greedy-const ms", "states",
           "connected ms", "states",
           "declared ms", "states")


def report(rows):
    print_table("Ablation: search-order policy (PPI clique queries)",
                HEADERS, rows)


def test_search_order_ablation(benchmark):
    rows = run_experiment()
    report(rows)
    assert rows
    # the cost-based orders never visit dramatically more states than the
    # naive declared order (and usually far fewer)
    for row in rows:
        greedy_states = float(row[2])
        declared_states = float(row[8])
        assert greedy_states <= declared_states * 2 + 100

    graph = get_ppi()
    matcher = get_ppi_matcher()
    query = ppi_clique_workload([5], 2, seed=1)[5][-1]
    from repro.matching import optimized_options

    benchmark(lambda: matcher.match(query, optimized_options(limit=1000)))


if __name__ == "__main__":
    report(run_experiment())
