"""The paper's evaluation (Section 5) as assertions on counters.

Figs. 4.20–4.23, Table 4.1 and this reproduction's ablations claim
*shapes*: which search space is smaller, which plan does less work,
which arm stops scaling.  Each claim is asserted here on counts the
program already reports: search spaces and reduction ratios
(:class:`~repro.matching.MatchReport`), Algorithm 4.2's levels and
pairs (:class:`~repro.matching.RefinementStats`), the search's partial
states (:class:`~repro.matching.SearchCounters`), the SQL engine's
``rows_examined`` and its :class:`~repro.sqlbaseline.WorkBudgetExceeded`
abort, and the members a path-index filter keeps.  No time is asserted;
``bench/`` times the same workloads end to end (``ppi_clique`` is
Figs. 4.20/4.21, ``er_subgraph`` Figs. 4.22/4.23).

Spaces, answer counts, refinement counts and filter counts do not
depend on ``PYTHONHASHSEED``.  The Baseline's search states and the SQL
arm's rows examined on extracted queries do: such a query's node order
follows set iteration, and the Baseline's connected order and the SQL
text follow that order.  Claims on them are inequalities that hold
under every seed tried, not pinned values.

``python -m tests.paper.test_figures`` prints the count tables that
EXPERIMENTS.md quotes, from the same row functions the tests assert on.
"""

from __future__ import annotations

import random
import statistics
from typing import Callable, Dict, Iterable, List, NamedTuple, Sequence

import pytest

from repro.core import Graph, GraphCollection, GroundPattern, select
from repro.core.algebra import matched_graphs
from repro.core.bindings import MatchedGraph
from repro.core.motif import SimpleMotif
from repro.datalog import Atom, BodyLiteral, Program, Rule, Var, query
from repro.datasets import erdos_renyi_graph, molecule_collection, ppi_network
from repro.datasets.queries import extract_connected_query, seeded_clique_query
from repro.matching import (
    CostModel,
    GraphMatcher,
    MatchOptions,
    SearchCounters,
    baseline_options,
    connected_order,
    find_matches,
    greedy_order,
    optimized_options,
)
from repro.matching.planner import match_members
from repro.sqlbaseline import (
    ExecutionStats,
    RelationalDatabase,
    SchemaError,
    SQLEngine,
    SQLGraphMatcher,
    WorkBudgetExceeded,
)

#: the paper terminates a query past 1000 answers
HIT_LIMIT = 1000
#: Fig. 4.20's high-hits group starts at this many answers
HIGH_HITS = 100
#: rows the SQL arm may examine before it is cut off, the stand-in for
#: the paper's terminated SQL queries
SQL_ROW_BUDGET = 200_000
CLIQUE_SIZES = (2, 3, 4, 5, 6, 7)
EXTRACTED_SIZES = (4, 8, 12, 16, 20)
LEVELS = (0, 1, 2, 4, 8, 16)
RADII = (0, 1, 2)
COMPOUNDS = 200


# --------------------------------------------------------------------------
# Workloads: cliques on PPI (Section 5.1), connected subgraphs extracted
# from an Erdős–Rényi graph with m = 5n and 100 labels (Section 5.2, at
# n = 1000), compounds for the path index (Section 4's category 1)
# --------------------------------------------------------------------------


def size_of(pattern: GroundPattern) -> int:
    return len(pattern.node_names())


def ppi_workload():
    """The PPI network, its matcher, and three cliques per size 2–7
    labelled from real cliques, so every query has an answer (the paper
    drops zero-answer queries)."""
    graph = ppi_network()
    rng = random.Random(420)
    cliques = [seeded_clique_query(graph, size, rng)
               for size in CLIQUE_SIZES for _ in range(3)]
    return graph, GraphMatcher(graph), cliques


def er_workload():
    """The synthetic graph, its matcher, and two connected subgraphs of it
    per size 4–20."""
    graph = erdos_renyi_graph(1000, 5000, num_labels=100, seed=0)
    rng = random.Random(99)
    queries = [extract_connected_query(graph, size, rng)
               for size in EXTRACTED_SIZES for _ in range(2)]
    return graph, GraphMatcher(graph), queries


def compound_workload():
    """Compounds and six connected subgraphs per size 2–4, each cut from
    a random member with enough atoms."""
    collection = molecule_collection(num_molecules=COMPOUNDS, seed=41)
    rng = random.Random(12)
    queries: List[GroundPattern] = []
    for size in (2, 3, 4):
        while sum(size_of(q) == size for q in queries) < 6:
            member = collection[rng.randrange(len(collection))]
            if member.num_nodes() >= size:
                queries.append(extract_connected_query(member, size, rng))
    return collection, queries


def by_size(items: Iterable, size: Callable = lambda item: item.size
            ) -> Dict[int, List]:
    out: Dict[int, List] = {}
    for item in items:
        out.setdefault(size(item), []).append(item)
    return out


def geomean(values: Iterable[float]) -> float:
    return statistics.geometric_mean(list(values))


# --------------------------------------------------------------------------
# Per-query counters
# --------------------------------------------------------------------------


class Spaces(NamedTuple):
    """One query's search spaces and search work.

    ``baseline`` is the space after F_u alone, the denominator of every
    reduction ratio; ``profiles`` and ``subgraphs`` are the spaces after
    local pruning by each method, ``refined`` after Algorithm 4.2 on the
    profile space.  ``optimized`` and ``baseline_states`` are the
    partial states the Optimized and Baseline pipelines searched.
    """

    size: int
    hits: int
    baseline: int
    profiles: int
    subgraphs: int
    refined: int
    optimized: int
    baseline_states: int

    def ratio(self, space: str) -> float:
        return getattr(self, space) / self.baseline


def spaces(matcher: GraphMatcher, pattern: GroundPattern) -> Spaces:
    subgraph_plan = matcher.plan(pattern, MatchOptions(local="subgraph",
                                                       refine=False))
    optimized = matcher.match(pattern, optimized_options(limit=HIT_LIMIT))
    baseline = matcher.match(pattern, baseline_options(limit=HIT_LIMIT))
    return Spaces(size_of(pattern), len(optimized.mappings),
                  optimized.baseline_space, optimized.retrieved_space,
                  subgraph_plan.retrieved_space, optimized.refined_space,
                  optimized.search.partial_states,
                  baseline.search.partial_states)


class SQLRun(NamedTuple):
    """The SQL arm on one query: rows examined, and whether the budget
    cut it off."""

    size: int
    rows_examined: int
    aborted: bool


def sql_run(sql: SQLGraphMatcher, pattern: GroundPattern) -> SQLRun:
    stats = ExecutionStats()
    try:
        sql.match(pattern, limit=HIT_LIMIT, stats=stats,
                  max_rows_examined=SQL_ROW_BUDGET)
    except WorkBudgetExceeded:
        pass
    return SQLRun(size_of(pattern), stats.rows_examined, stats.aborted)


def sql_until_abort(graph: Graph,
                    patterns: Sequence[GroundPattern]) -> List[SQLRun]:
    """The greedy-join SQL arm on the first query of each size, smallest
    first, up to and including the first size at which it is cut off."""
    sql = SQLGraphMatcher(graph, join_order="greedy")
    runs: List[SQLRun] = []
    for group in by_size(patterns, size_of).values():
        runs.append(sql_run(sql, group[0]))
        if runs[-1].aborted:
            break
    return runs


#: the search-order policies of the ablation (Section 4.4): name, and the
#: order it builds from (matcher, pattern, candidate-set sizes)
POLICIES = (
    ("greedy", lambda matcher, pattern, sizes: greedy_order(
        pattern.motif, sizes, CostModel(pattern.motif, stats=matcher.stats))),
    ("greedy-const", lambda matcher, pattern, sizes: greedy_order(
        pattern.motif, sizes, CostModel(pattern.motif, gamma_const=0.1))),
    ("connected", lambda matcher, pattern, sizes: connected_order(
        pattern.motif)),
    ("declared", lambda matcher, pattern, sizes: pattern.node_names()),
)


def order_states(matcher: GraphMatcher,
                 pattern: GroundPattern) -> List[int]:
    """Partial states searched over the refined space in each policy's
    order."""
    space = matcher.plan(pattern, MatchOptions(optimize_order=False)).space
    sizes = {name: len(mates) for name, mates in space.items()}
    states = []
    for _, build in POLICIES:
        counters = SearchCounters()
        find_matches(pattern, matcher.graph, candidates=space,
                     order=build(matcher, pattern, sizes), limit=HIT_LIMIT,
                     counters=counters)
        states.append(counters.partial_states)
    return states


# --------------------------------------------------------------------------
# Rows: what the tables print and the tests assert on
# --------------------------------------------------------------------------


def mean_ratios(group: List[Spaces]) -> tuple:
    """(#queries, profiles, subgraphs, refined): geometric mean reduction
    ratios over *group*."""
    return (len(group), *(geomean(s.ratio(space) for s in group)
                          for space in ("profiles", "subgraphs", "refined")))


def fig_4_20_rows(cliques: List[Spaces]) -> List[tuple]:
    """(size, hits group, ratios) per clique size and hits group."""
    rows = []
    for size, group in by_size(cliques).items():
        for name, members in (
                ("low", [s for s in group if s.hits < HIGH_HITS]),
                ("high", [s for s in group if s.hits >= HIGH_HITS])):
            if members:
                rows.append((size, name, *mean_ratios(members)))
    return rows


def fig_4_22_rows(extracted: List[Spaces]) -> List[tuple]:
    """(size, ratios) per query size."""
    return [(size, *mean_ratios(group))
            for size, group in by_size(extracted).items()]


def work_rows(workload: List[Spaces], sql: List[SQLRun]) -> List[tuple]:
    """(size, Optimized states, Baseline states, SQL run) per query size
    (Figs. 4.21(b) and 4.23(a)); the SQL run is ``None`` past the size
    at which the SQL arm stopped."""
    runs = {run.size: run for run in sql}
    return [(size, sum(s.optimized for s in group),
             sum(s.baseline_states for s in group), runs.get(size))
            for size, group in by_size(workload).items()]


def refinement_level_rows(matcher: GraphMatcher,
                          patterns: Sequence[GroundPattern]) -> List[tuple]:
    """(level l, refined space, levels run, pairs checked) summed over
    *patterns*; level 0 is the unrefined profile space."""
    rows = []
    for level in LEVELS:
        space = levels = pairs = 0
        for pattern in patterns:
            plan = matcher.plan(pattern, MatchOptions(
                refine=level > 0, refine_level=level or None))
            space += plan.refined_space
            if plan.refinement is not None:
                levels += plan.refinement.levels_run
                pairs += plan.refinement.pairs_checked
        rows.append((level, space, levels, pairs))
    return rows


def search_order_rows(matcher: GraphMatcher,
                      patterns: Sequence[GroundPattern]) -> List[tuple]:
    """(size, partial states under each of :data:`POLICIES`) summed per
    query size."""
    return [(size, *map(sum, zip(*(order_states(matcher, p) for p in group))))
            for size, group in by_size(patterns, size_of).items()]


def profile_radius_rows(graph: Graph,
                        patterns: Sequence[GroundPattern]) -> List[tuple]:
    """(radius, geometric mean reduction ratio) of profile pruning."""
    rows = []
    for radius in RADII:
        matcher = GraphMatcher(graph, radius=radius)
        plans = [matcher.plan(p, MatchOptions(refine=False, radius=radius))
                 for p in patterns]
        rows.append((radius, geomean(p.retrieved_space / p.baseline_space
                                     for p in plans)))
    return rows


def sql_join_order_rows(graph: Graph,
                        patterns: Sequence[GroundPattern]) -> List[tuple]:
    """(size, FROM-order run, greedy-join run) per query."""
    from_order = SQLGraphMatcher(graph, join_order="from")
    greedy = SQLGraphMatcher(graph, join_order="greedy")
    return [(size_of(p), sql_run(from_order, p), sql_run(greedy, p))
            for p in patterns]


def collection_index_rows(collection: GraphCollection,
                          patterns: Sequence[GroundPattern]) -> List[tuple]:
    """(size, #queries, members the path filter kept, members answering
    after it, members answering a full scan) summed per query size."""
    matchers: Dict = {}
    rows = []
    for size, group in by_size(patterns, size_of).items():
        kept = answered = scanned = 0
        for pattern in group:
            filtered: List[int] = []
            answered += len(matched_graphs(match_members(
                collection, [pattern], MatchOptions(exhaustive=False),
                matchers, filtered=filtered)))
            kept += len(collection) - len(filtered)
            scanned += sum(1 for graph in collection
                           if find_matches(pattern, graph, exhaustive=False))
        rows.append((size, len(group), kept, answered, scanned))
    return rows


# Table 4.1's cells, each demonstrated by a probe of this repo's engines


def probe_graphql() -> tuple:
    """σ consumes a collection of graphs and returns matched graphs, and
    graphs with different attributes bind to one pattern."""
    g1 = Graph("g1")
    g1.add_node("x", label="A", weight=3)
    g2 = Graph("g2")
    g2.add_node("y", label="A", color="red")
    g2.add_node("z")
    motif = SimpleMotif()
    motif.add_node("u", attrs={"label": "A"})
    result = select(GraphCollection([g1, g2]), GroundPattern(motif))
    unit = ("graphs" if all(isinstance(m, MatchedGraph) for m in result)
            else "?")
    return ("GraphQL", unit, "set-oriented",
            "yes" if len(result) == 2 else "no")


def probe_sql() -> tuple:
    """The SQL engine consumes and returns rows, under a strict schema."""
    db = RelationalDatabase()
    db.create_table("T", ["a", "b"])
    db.table("T").insert((1, 2))
    unit = ("tuples" if SQLEngine(db).execute("SELECT t.a FROM T t") == [(1,)]
            else "?")
    try:
        db.table("T").insert((1,))
        semistructured = "yes"
    except SchemaError:
        semistructured = "no"
    return ("SQL", unit, "set-oriented", semistructured)


def probe_datalog() -> tuple:
    """Datalog, the GraphLog core, derives facts over nodes and edges."""
    program = Program()
    program.fact("edge", "a", "b")
    X, Y = Var("X"), Var("Y")
    program.add_rule(Rule(Atom("r", [X, Y]),
                          [BodyLiteral(Atom("edge", [X, Y]))]))
    unit = ("nodes/edges" if query(program, Atom("r", [X, Y])) == [("a", "b")]
            else "?")
    return ("Datalog (GraphLog core)", unit, "logic programming", "-")


def table_4_1_rows() -> List[tuple]:
    return [probe_graphql(), probe_sql(), probe_datalog()]


# --------------------------------------------------------------------------
# Fixtures: each workload is built and counted once per module
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ppi():
    return ppi_workload()


@pytest.fixture(scope="module")
def er():
    return er_workload()


@pytest.fixture(scope="module")
def clique_spaces(ppi) -> List[Spaces]:
    _, matcher, cliques = ppi
    return [spaces(matcher, q) for q in cliques]


@pytest.fixture(scope="module")
def extracted_spaces(er) -> List[Spaces]:
    _, matcher, queries = er
    return [spaces(matcher, q) for q in queries]


# --------------------------------------------------------------------------
# Fig. 4.20: search-space reduction, clique queries on PPI
# --------------------------------------------------------------------------


def test_fig_4_20_refined_and_subgraphs_within_profiles(clique_spaces):
    for s in clique_spaces:
        assert s.refined <= s.profiles, s
        assert s.subgraphs <= s.profiles, s
    # a clique node's neighbourhood subgraph is the whole clique, so on
    # some cliques the subgraph test prunes what the profile test keeps
    assert any(s.subgraphs < s.profiles for s in clique_spaces)
    assert any(s.refined < s.profiles for s in clique_spaces)


def test_fig_4_20_reduction_deepens_with_size(clique_spaces):
    refined = {size: geomean(s.ratio("refined") for s in group)
               for size, group in by_size(clique_spaces).items()}
    assert refined[max(CLIQUE_SIZES)] < refined[min(CLIQUE_SIZES)] * 1e-3


def test_fig_4_20_high_hits_reduce_less(clique_spaces):
    refined = {(row[0], row[1]): row[5]
               for row in fig_4_20_rows(clique_spaces)}
    both = [size for size in CLIQUE_SIZES
            if (size, "low") in refined and (size, "high") in refined]
    assert both
    for size in both:
        assert refined[size, "high"] > refined[size, "low"], size


# --------------------------------------------------------------------------
# Figs. 4.21(b) and 4.23(a): Optimized vs Baseline vs SQL
# --------------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["clique_spaces", "extracted_spaces"])
def test_optimized_searches_fewer_states_than_baseline(workload, request):
    rows = work_rows(request.getfixturevalue(workload), [])
    for size, optimized, baseline, _ in rows:
        assert optimized <= baseline, size
    assert sum(row[1] for row in rows) < sum(row[2] for row in rows)


@pytest.mark.parametrize("workload,counted", [
    ("ppi", "clique_spaces"), ("er", "extracted_spaces")])
def test_sql_arm_stops_scaling(workload, counted, request):
    """The matcher answers every query.  The SQL arm answers the smallest
    but is cut off below the largest size, at a size where the matcher
    searches fewer states than 1% of the rows the SQL arm may examine."""
    graph, _, patterns = request.getfixturevalue(workload)
    measured = request.getfixturevalue(counted)
    runs = sql_until_abort(graph, patterns)
    assert all(s.hits for s in measured)
    assert len(runs) > 1 and runs[-1].aborted
    stopped = runs[-1].size
    assert stopped < max(s.size for s in measured)
    for s in measured:
        if s.size == stopped:
            assert s.optimized < SQL_ROW_BUDGET / 100, s


# --------------------------------------------------------------------------
# Fig. 4.22: search space, extracted queries
# --------------------------------------------------------------------------


def test_fig_4_22_refinement_beats_local_pruning(extracted_spaces):
    for s in extracted_spaces:
        assert s.refined < s.subgraphs <= s.profiles, s
    # sparse extracted queries have little local structure: on most of
    # them the neighbourhood-subgraph test keeps what profiles keep
    same = sum(s.subgraphs == s.profiles for s in extracted_spaces)
    assert same > len(extracted_spaces) // 2


def test_fig_4_22_refinement_prunes_orders_of_magnitude(extracted_spaces):
    rows = fig_4_22_rows(extracted_spaces)
    for size, _, profiles, _, refined in rows:
        if size >= 8:
            assert refined < 1e-3 * profiles, size
    assert rows[-1][4] < rows[0][4]


# --------------------------------------------------------------------------
# Table 4.1: the language comparison
# --------------------------------------------------------------------------


def test_table_4_1():
    assert table_4_1_rows() == [
        ("GraphQL", "graphs", "set-oriented", "yes"),
        ("SQL", "tuples", "set-oriented", "no"),
        ("Datalog (GraphLog core)", "nodes/edges", "logic programming", "-"),
    ]


# --------------------------------------------------------------------------
# Ablations (this reproduction's additions)
# --------------------------------------------------------------------------


def test_refinement_level(er):
    _, matcher, queries = er
    rows = refinement_level_rows(
        matcher, [q for q in queries if size_of(q) in (12, 16)])
    by_level = [row[1] for row in rows]
    assert by_level == sorted(by_level, reverse=True)
    assert by_level[-1] < by_level[0]
    # Algorithm 4.2 reaches its fixpoint before l = 8 on these 12- and
    # 16-node queries: l = query size, the paper's default, loses nothing
    assert rows[-1][1:] == rows[-2][1:]


def test_search_order(ppi):
    """The greedy cost-based order searches fewer partial states than the
    connectivity-only and the declared orders over the clique workload,
    and frequency or constant γ makes no difference there.

    Extracted queries are left out: after refinement their search is a
    few states per pattern node in any order, and which order is ahead
    in sum flips with ``PYTHONHASHSEED``."""
    _, matcher, cliques = ppi
    rows = search_order_rows(matcher, cliques)
    greedy, constant, connected, declared = map(sum, list(zip(*rows))[1:])
    assert greedy < connected and greedy < declared, rows
    assert greedy == constant, rows


def test_profile_radius(ppi):
    graph, _, cliques = ppi
    ratios = dict(profile_radius_rows(
        graph, [q for q in cliques if size_of(q) in (4, 5)]))
    assert ratios[0] == 1.0
    assert ratios[1] < ratios[0]
    # on a hub-heavy network a two-hop label multiset holds almost any
    # pattern profile: radius 2 prunes less than radius 1
    assert ratios[2] > ratios[1]


def test_sql_join_order(er, extracted_spaces):
    """Reordering joins greedily examines fewer rows than the FROM order
    of the Fig. 4.2 query and aborts no more often, yet stays far above
    the matcher's search states."""
    graph, _, queries = er
    _, from_runs, greedy_runs = zip(*sql_join_order_rows(
        graph, [q for q in queries if size_of(q) == 4]))
    assert (sum(r.rows_examined for r in greedy_runs)
            < sum(r.rows_examined for r in from_runs))
    assert (sum(r.aborted for r in greedy_runs)
            <= sum(r.aborted for r in from_runs))
    for run, s in zip(greedy_runs, extracted_spaces):
        assert run.size == s.size and run.rows_examined > 10 * s.optimized


def test_collection_path_index():
    """Section 4: over many small graphs, an index means "only a small
    number of graphs need to be accessed"; the filter never loses one."""
    collection, queries = compound_workload()
    for size, count, kept, answered, scanned in collection_index_rows(
            collection, queries):
        assert answered == scanned, size
        assert scanned <= kept < count * len(collection), size


# --------------------------------------------------------------------------
# python -m tests.paper.test_figures
# --------------------------------------------------------------------------


def print_table(title: str, headers: Sequence[str], rows: Iterable) -> None:
    cells = [[_cell(value) for value in row] for row in rows]
    widths = [max([len(h)] + [len(row[i]) for row in cells])
              for i, h in enumerate(headers)]
    print(f"\n== {title} ==")
    for row in [list(headers)] + cells:
        print("  ".join(c.rjust(w) for c, w in zip(row, widths)))


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.2e}"
    if isinstance(value, SQLRun):
        return f"{value.rows_examined}" + (" (aborted)" if value.aborted
                                           else "")
    return "-" if value is None else str(value)


def main() -> None:
    ppi_graph, ppi_matcher, cliques = ppi_workload()
    clique_spaces = [spaces(ppi_matcher, q) for q in cliques]
    graph, matcher, queries = er_workload()
    extracted_spaces = [spaces(matcher, q) for q in queries]
    work = ("size", "Optimized states", "Baseline states",
            "SQL rows examined")
    columns = ("profiles", "subgraphs", "refined")

    print_table("Fig 4.20 reduction ratio, PPI clique queries",
                ("size", "hits", "#queries", *columns),
                fig_4_20_rows(clique_spaces))
    print_table("Fig 4.21(b) search work, PPI clique queries", work,
                work_rows(clique_spaces, sql_until_abort(ppi_graph, cliques)))
    print_table("Fig 4.22 reduction ratio, extracted queries (n=1000)",
                ("size", "#queries", *columns), fig_4_22_rows(extracted_spaces))
    print_table("Fig 4.23(a) search work, extracted queries (n=1000)", work,
                work_rows(extracted_spaces, sql_until_abort(graph, queries)))
    print_table("Table 4.1 language comparison (probed)",
                ("language", "basic unit", "query style", "semistructured"),
                table_4_1_rows())
    print_table("Ablation: refinement level (extracted, sizes 12 and 16)",
                ("level", "refined space", "levels run", "pairs checked"),
                refinement_level_rows(matcher, [
                    q for q in queries if size_of(q) in (12, 16)]))
    print_table("Ablation: search order, partial states (PPI cliques, "
                "then extracted)",
                ("size", *(name for name, _ in POLICIES)),
                search_order_rows(ppi_matcher, cliques)
                + search_order_rows(matcher, queries))
    print_table("Ablation: profile radius (PPI cliques, sizes 4 and 5)",
                ("radius", "reduction ratio"),
                profile_radius_rows(ppi_graph, [
                    q for q in cliques if size_of(q) in (4, 5)]))
    print_table("Ablation: SQL join order (extracted, size 4)",
                ("size", "SQL FROM order", "SQL greedy"),
                sql_join_order_rows(graph, [
                    q for q in queries if size_of(q) == 4]))
    print_table(f"Ablation: collection path index ({COMPOUNDS} compounds)",
                ("size", "#queries", "members kept", "answered",
                 "answered by scan"),
                collection_index_rows(*compound_workload()))


if __name__ == "__main__":
    main()
