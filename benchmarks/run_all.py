"""Run every benchmark driver and collect the paper-style tables.

Usage::

    python benchmarks/run_all.py [output-file]

Each driver is executed in-process (they share the harness caches, so
the PPI network and synthetic graphs are built once).  Output defaults
to ``results/benchmark_tables.txt``.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from pathlib import Path

import test_ablation_collection_index
import test_ablation_profile_radius
import test_ablation_refinement_level
import test_ablation_search_order
import test_ablation_sql_join_order
import test_fig_4_20_clique_search_space
import test_fig_4_21_clique_time
import test_fig_4_22_synthetic_steps
import test_fig_4_23_synthetic_total
import test_service_throughput
import test_table_4_1_language_comparison


def drivers():
    yield ("Fig 4.20", lambda: test_fig_4_20_clique_search_space.report(
        test_fig_4_20_clique_search_space.run_experiment()))
    yield ("Fig 4.21", lambda: test_fig_4_21_clique_time.report(
        test_fig_4_21_clique_time.run_experiment()))
    yield ("Fig 4.22", lambda: test_fig_4_22_synthetic_steps.report(
        test_fig_4_22_synthetic_steps.run_experiment()))
    yield ("Fig 4.23", lambda: test_fig_4_23_synthetic_total.report(
        test_fig_4_23_synthetic_total.run_query_size_sweep(),
        test_fig_4_23_synthetic_total.run_graph_size_sweep()))
    yield ("Table 4.1", lambda: test_table_4_1_language_comparison.report(
        test_table_4_1_language_comparison.run_probes()))
    yield ("Refinement level", lambda: test_ablation_refinement_level.report(
        test_ablation_refinement_level.run_experiment()))
    yield ("Search order", lambda: test_ablation_search_order.report(
        test_ablation_search_order.run_experiment()))
    yield ("Profile radius", lambda: test_ablation_profile_radius.report(
        test_ablation_profile_radius.run_experiment()))
    yield ("SQL join order", lambda: test_ablation_sql_join_order.report(
        test_ablation_sql_join_order.run_experiment()))

    def collection_index():
        rows, build = test_ablation_collection_index.run_experiment()
        test_ablation_collection_index.report(rows, build)

    yield ("Collection index", collection_index)
    yield ("Service throughput", lambda: test_service_throughput.report(
        *test_service_throughput.run_experiment()))


def main() -> int:
    out_path = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        "results/benchmark_tables.txt"
    )
    out_path.parent.mkdir(parents=True, exist_ok=True)
    buffer = io.StringIO()
    started = time.time()
    for name, driver in drivers():
        print(f"running {name} ...", flush=True)
        step = time.time()
        with contextlib.redirect_stdout(buffer):
            driver()
        print(f"  done in {time.time() - step:.1f} s")
    buffer.write(f"\n# total benchmark time: {time.time() - started:.1f} s\n")
    out_path.write_text(buffer.getvalue(), encoding="utf-8")
    print(f"\ntables written to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
