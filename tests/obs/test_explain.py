"""EXPLAIN / EXPLAIN ANALYZE over the paper's worked example."""

from __future__ import annotations

from repro.matching import GraphMatcher, MatchOptions, baseline_options
from repro.obs.explain import explain_document, explain_ground, render_text
from repro.obs.trace import SpanCollector, tracer
from repro.storage import GraphDatabase


def test_explain_reports_per_node_retrieval_and_counts(paper_graph,
                                                       triangle_pattern):
    matcher = GraphMatcher(paper_graph)
    report = explain_ground(matcher, triangle_pattern)
    assert report["graph"] == "G"
    assert report["pattern_nodes"] == 3
    rows = {row["node"]: row for row in report["nodes"]}
    assert set(rows) == set(triangle_pattern.node_names())
    for row in rows.values():
        # two nodes per label in the paper graph; indexes must be used
        assert row["retrieval"] in ("attribute-index", "label-index")
        assert row["estimated_mates"] == 2
        assert row["feasible_mates"] == 2
        assert 0 <= row["refined"] <= row["after_pruning"] <= 2
    assert report["order_policy"] in ("greedy", "connected")
    assert set(report["order"]) == set(rows)
    assert report["estimated_cost"] >= 0
    assert report["spaces"]["refined"] <= report["spaces"]["retrieved"]
    assert "actual" not in report


def test_baseline_options_skip_pruning_and_refinement(paper_graph,
                                                      triangle_pattern):
    matcher = GraphMatcher(paper_graph)
    report = explain_ground(matcher, triangle_pattern,
                            baseline_options())
    assert report["local"] == "none"
    assert report["refine"] is False
    assert report["order_policy"] == "connected"
    for row in report["nodes"]:
        # no local pruning: the feasible mates survive untouched
        assert row["after_pruning"] == row["feasible_mates"]
        assert row["refined"] == row["feasible_mates"]


def test_failed_refinement_reports_refine_off(paper_graph, triangle_pattern,
                                              monkeypatch):
    """A refinement failure is a degradation note, and ``refine`` says
    the unrefined space is what gets searched."""
    import repro.matching.planner as planner

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(planner, "refine_search_space", broken)
    report = explain_ground(GraphMatcher(paper_graph), triangle_pattern)
    assert report["refine"] is False
    assert report["spaces"]["refined"] == report["spaces"]["retrieved"]
    (note,) = report["degradation"]
    assert note.startswith("refinement failed (boom)")
    assert "refine=off" in render_text({"graphs": [report]})


def test_analyze_attaches_actuals_matching_a_real_run(paper_graph,
                                                      triangle_pattern):
    matcher = GraphMatcher(paper_graph)
    report = explain_ground(matcher, triangle_pattern, analyze=True)
    actual = report["actual"]
    # the only A-B-C triangle in the paper graph is (A1, B1, C2)
    assert actual["mappings"] == 1
    assert actual["outcome"]["status"] == "COMPLETE"
    assert actual["search"]["results"] == 1
    assert actual["search"]["candidates_tried"] >= 1
    assert set(actual["times"]) >= {"search"}
    assert actual["total_time"] >= 0
    assert actual["order"] == report["order"]


def test_explain_document_covers_every_graph(paper_graph, triangle_pattern):
    database = GraphDatabase()
    database.register("data", paper_graph)
    document = explain_document(database, "data", triangle_pattern,
                                MatchOptions(), analyze=True)
    assert document["document"] == "data"
    assert document["analyze"] is True
    assert document["derivations"] == 1
    assert len(document["graphs"]) == 1

    text = render_text(document)
    assert "graph G" in text
    assert "search order" in text
    assert "estimated cost" in text
    assert "actual: 1 mapping(s)" in text
    assert "phase timings" in text


def test_unlabeled_nodes_fall_back_to_scans(paper_graph):
    from repro.core import GroundPattern, SimpleMotif

    motif = SimpleMotif()
    motif.add_node("x")
    motif.add_node("y")
    motif.add_edge("x", "y")
    matcher = GraphMatcher(paper_graph)
    report = explain_ground(matcher, GroundPattern(motif))
    for row in report["nodes"]:
        assert row["retrieval"] == "scan"
        assert row["estimated_mates"] == paper_graph.num_nodes()


STAGES = ("match.prune", "match.refine", "match.order")


def test_each_stage_runs_once_per_match_and_per_explained_graph(
        paper_graph, triangle_pattern):
    """One pass through steps 0-4, however the pipeline is entered: no
    second baseline retrieval, no re-plan before EXPLAIN ANALYZE's run."""
    matcher = GraphMatcher(paper_graph)
    collector = SpanCollector()
    with tracer().session(collector):
        matcher.match(triangle_pattern)
    assert [len(collector.by_name(name)) for name in STAGES] == [1, 1, 1]
    assert not collector.by_name("match.retrieve_baseline")

    database = GraphDatabase()
    database.register("data", paper_graph)
    for analyze, searches in ((False, 0), (True, 1)):
        collector = SpanCollector()
        with tracer().session(collector):
            explain_document(database, "data", triangle_pattern,
                             analyze=analyze)
        # the 6-node member runs the baseline plan: no Algorithm 4.2
        assert [len(collector.by_name(name)) for name in STAGES] == [1, 0, 1]
        assert len(collector.by_name("match.search")) == searches


def test_analyze_marks_a_replayed_member(paper_graph, triangle_pattern):
    """EXPLAIN ANALYZE of an unchanged small member again replays its
    memoised run: the same actuals, marked replayed, and no stage ran."""
    database = GraphDatabase()
    database.register("data", paper_graph)
    (first,) = explain_document(database, "data", triangle_pattern,
                                analyze=True)["graphs"]
    collector = SpanCollector()
    with tracer().session(collector):
        document = explain_document(database, "data", triangle_pattern,
                                    analyze=True)
    (again,) = document["graphs"]
    assert first["actual"]["replayed"] is False
    assert again["actual"]["replayed"] is True
    for key in ("mappings", "search", "order", "spaces"):
        assert again["actual"][key] == first["actual"][key]
    for key in ("status", "steps", "results", "memory_used"):
        assert (again["actual"]["outcome"][key]
                == first["actual"]["outcome"][key])
    assert "[COMPLETE, replayed]" in render_text(document)
    (query,) = collector.by_name("match.query")
    assert query.tags["replayed"] is True
    assert not any(collector.by_name(name) for name in STAGES)
    assert not collector.by_name("match.search")
