"""Full-scale Fig. 4.23(b): graph sizes 10K–320K (the paper's sweep).

A lean version of the graph-size experiment for the EXPERIMENTS.md
appendix: per size, three extracted size-4 queries run through the
Optimized pipeline, the Baseline, and the greedy-join SQL arm.

Run (takes tens of minutes in pure Python):

    python benchmarks/full_scale_fig_4_23b.py [output-file]
"""

import random
import sys
import time

from repro.datasets import erdos_renyi_graph
from repro.datasets.queries import extract_connected_query
from repro.matching import GraphMatcher, baseline_options, optimized_options
from repro.sqlbaseline import SQLGraphMatcher, WorkBudgetExceeded

SIZES = [10_000, 20_000, 40_000, 80_000, 160_000, 320_000]
PER_SIZE = 3
SQL_ROW_BUDGET = 20_000_000


def main() -> int:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "results/full_scale_fig_4_23b.txt"
    lines = ["# Fig 4.23(b) at the paper's sizes (m = 5n, query size 4, "
             "3 queries/size, times in ms)",
             f"{'n':>8} {'gen_s':>7} {'build_s':>8} {'Optimized':>10} "
             f"{'Baseline':>10} {'SQL':>12}"]
    for n in SIZES:
        started = time.time()
        graph = erdos_renyi_graph(n, 5 * n, num_labels=100, seed=n)
        gen_seconds = time.time() - started
        started = time.time()
        matcher = GraphMatcher(graph)
        build_seconds = time.time() - started
        sql_matcher = SQLGraphMatcher(graph, join_order="greedy")
        rng = random.Random(7)
        opt_times, base_times, sql_times = [], [], []
        aborted = 0
        for _ in range(PER_SIZE):
            query = extract_connected_query(graph, 4, rng)
            report = matcher.match(query, optimized_options(limit=1000))
            if not report.mappings:
                continue
            opt_times.append(report.total_time)
            base = matcher.match(query, baseline_options(limit=1000))
            base_times.append(base.total_time)
            sql_started = time.perf_counter()
            try:
                sql_matcher.match(query, limit=1000,
                                  max_rows_examined=SQL_ROW_BUDGET)
            except WorkBudgetExceeded:
                aborted += 1
            sql_times.append(time.perf_counter() - sql_started)

        def ms(values):
            return f"{1000 * sum(values) / len(values):.1f}" if values else "-"

        sql_cell = ms(sql_times) + (f"({aborted}ab)" if aborted else "")
        line = (f"{n:>8} {gen_seconds:>7.1f} {build_seconds:>8.1f} "
                f"{ms(opt_times):>10} {ms(base_times):>10} {sql_cell:>12}")
        lines.append(line)
        print(line, flush=True)
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    print(f"written to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
