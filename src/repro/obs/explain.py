"""EXPLAIN / EXPLAIN ANALYZE for the access-method pipeline.

Renders what the planner will do with a pattern — per-node retrieval
method (attribute index or scan), estimated vs. actual
feasible-mate, pruned and refined candidate counts, the chosen search
order and its cost-model estimates — and, with ``analyze=True``, runs
the query for real and attaches per-phase timings, search counters and
the structured outcome.

This module sits *above* the matcher (it imports ``repro.matching``), so
it is deliberately **not** re-exported from ``repro.obs.__init__`` —
importing the tracing/metrics core must never drag the matcher in.
Consumers (CLI, service) import it directly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..analysis import analyze_pattern_text, schema_for_document, to_wire
from ..core.pattern import GroundPattern
from ..lang.compiler import compile_pattern_text
from ..matching.neighborhood import pattern_label
from ..matching.planner import (
    REFINEMENT_FAILED,
    AccessPlan,
    GraphMatcher,
    MatchOptions,
    MatchReport,
)
from ..runtime import ExecutionContext

__all__ = ["explain_ground", "explain_document", "explain_query",
           "render_text"]


def _estimated_mates(matcher: GraphMatcher, ground: GroundPattern,
                     name: str) -> int:
    """The statistics-based candidate estimate for one pattern node.

    Labelled nodes estimate by label frequency (what the cost model
    uses); unlabelled nodes fall back to the whole node count.
    """
    label = pattern_label(ground.motif.node(name))
    if label is not None and matcher.stats is not None:
        return matcher.stats.node_frequency(label)
    return matcher.graph.num_nodes()


def explain_ground(
    matcher: GraphMatcher,
    ground: GroundPattern,
    options: Optional[MatchOptions] = None,
    analyze: bool = False,
    context: Optional[ExecutionContext] = None,
) -> Dict[str, Any]:
    """The access plan of one ground pattern on one graph, as a dict.

    Renders :meth:`GraphMatcher.plan` (retrieval + pruning + refinement
    + ordering, no search): *actual* candidate counts next to the
    statistics *estimates*.  With ``analyze=True`` the plan rendered is
    the one carried by the report of a single :meth:`GraphMatcher.match`
    run under *context*, whose timings, search counters and outcome are
    attached.
    """
    opts = options or MatchOptions()
    plan = (matcher.match(ground, opts, context=context) if analyze
            else matcher.plan(ground, opts))
    return _render_plan(matcher, ground, opts, plan)


def _render_plan(matcher: GraphMatcher, ground: GroundPattern,
                 opts: MatchOptions, plan: AccessPlan) -> Dict[str, Any]:
    retrieval = plan.retrieval
    nodes: List[Dict[str, Any]] = []
    for name in ground.node_names():
        nodes.append({
            "node": name,
            "label": pattern_label(ground.motif.node(name)),
            "retrieval": retrieval.method.get(name, "scan"),
            "estimated_mates": _estimated_mates(matcher, ground, name),
            "scanned": retrieval.scanned.get(name, 0),
            "feasible_mates": retrieval.after_fu.get(name, 0),
            "after_pruning": retrieval.after_local.get(name, 0),
            "refined": len(plan.space.get(name, ())),
        })

    estimated_cost, estimated_results = plan.estimate()
    report: Dict[str, Any] = {
        "graph": matcher.graph.name or "<anon>",
        "pattern_nodes": len(nodes),
        "local": opts.local,
        # false when Algorithm 4.2 was off or failed (the unrefined
        # space is what gets searched then)
        "refine": bool(opts.refine) and not any(
            note.startswith(REFINEMENT_FAILED) for note in plan.degradation),
        "order": list(plan.order),
        "order_policy": plan.policy,
        "estimated_cost": estimated_cost,
        "estimated_results": estimated_results,
        "spaces": {
            "baseline": plan.baseline_space,
            "retrieved": plan.retrieved_space,
            "refined": plan.refined_space,
        },
        "nodes": nodes,
        "degradation": list(plan.degradation),
    }
    if isinstance(plan, MatchReport):
        stages = plan.stats_dict()
        report["actual"] = {
            "mappings": len(plan.mappings),
            "outcome": plan.outcome.to_dict(),
            **{key: stages[key] for key in (
                "replayed", "times", "total_time", "order", "spaces",
                "search")},
        }
    return report


def explain_document(
    database,
    document: str,
    pattern,
    options: Optional[MatchOptions] = None,
    analyze: bool = False,
    context: Optional[ExecutionContext] = None,
) -> Dict[str, Any]:
    """EXPLAIN a (possibly non-ground) pattern over every graph of a
    registered document; returns one JSON-ready dict.  Each entry
    renders a run of the database's own member loop: the plan (and, with
    *analyze*, the very run) ``match`` gives that member, so the graphs
    listed are ``match``'s.  ``members`` counts the document's graphs,
    ``filtered`` those the label-path filter kept from every
    derivation."""
    grounds = pattern.ground()
    filtered: List[int] = []
    graphs = [
        _render_plan(run.matcher, run.ground, run.options, run.report)
        for run in database.member_runs(document, grounds, options,
                                        context, search=analyze,
                                        filtered=filtered)]
    return {
        "document": document,
        "analyze": bool(analyze),
        "derivations": len(grounds),
        "members": len(database.doc(document)),
        "filtered": len(filtered),
        "graphs": graphs,
    }


def explain_query(
    database,
    document: str,
    query_text: str,
    options: Optional[MatchOptions] = None,
    analyze: bool = False,
    context: Optional[ExecutionContext] = None,
) -> Dict[str, Any]:
    """EXPLAIN pattern *text* over a registered document.

    What ``repro-gql explain`` and the service's ``explain`` op both
    return: :func:`explain_document` of the compiled text, with the
    analyzer's findings riding along under ``"diagnostics"``
    (schema-aware: the document is registered, so the observed schema is
    available for free).
    """
    explained = explain_document(
        database, document, compile_pattern_text(query_text), options,
        analyze=analyze, context=context)
    explained["diagnostics"] = to_wire(analyze_pattern_text(
        query_text, schema_for_document(database, document)))
    return explained


def render_text(document: Dict[str, Any]) -> str:
    """A readable rendering of :func:`explain_document` output."""
    lines: List[str] = []
    for diagnostic in document.get("diagnostics", []):
        where = ""
        if diagnostic.get("line"):
            where = f" (line {diagnostic['line']}, " \
                    f"column {diagnostic.get('column', 0)})"
        lines.append(
            f"diagnostic: {diagnostic.get('severity', '?')} "
            f"{diagnostic.get('code', '?')} "
            f"{diagnostic.get('message', '')}{where}")
    if document.get("filtered"):
        lines.append(f"members: {document['members']}, "
                     f"{document['filtered']} filtered out by label paths")
    for entry in document.get("graphs", []):
        lines.append(f"graph {entry['graph']}: "
                     f"{entry['pattern_nodes']} pattern node(s), "
                     f"local={entry['local']}, "
                     f"refine={'on' if entry['refine'] else 'off'}")
        lines.append("  node          retrieval        est.  feasible  "
                     "pruned  refined")
        for node in entry["nodes"]:
            label = f" <{node['label']}>" if node["label"] else ""
            lines.append(
                f"  {node['node'] + label:<13} {node['retrieval']:<15} "
                f"{node['estimated_mates']:>5} {node['feasible_mates']:>9} "
                f"{node['after_pruning']:>7} {node['refined']:>8}")
        lines.append(
            f"  search order [{entry['order_policy']}]: "
            + " > ".join(entry["order"]))
        lines.append(
            f"  estimated cost {entry['estimated_cost']:.3g}, "
            f"estimated results {entry['estimated_results']:.3g}, "
            f"search space {entry['spaces']['refined']}")
        for note in entry.get("degradation", ()):
            lines.append(f"  degraded: {note}")
        actual = entry.get("actual")
        if actual:
            lines.append(
                f"  actual: {actual['mappings']} mapping(s) in "
                f"{actual['total_time'] * 1000:.1f} ms "
                f"[{actual['outcome'].get('status', '?')}"
                f"{', replayed' if actual.get('replayed') else ''}]")
            times = actual.get("times", {})
            if times:
                lines.append("  phase timings: " + ", ".join(
                    f"{phase}={seconds * 1000:.1f}ms"
                    for phase, seconds in times.items()))
            search = actual.get("search")
            if search:
                lines.append(
                    f"  search counters: "
                    f"tried={search['candidates_tried']} "
                    f"checks={search['check_calls']} "
                    f"states={search['partial_states']} "
                    f"results={search['results']}")
    return "\n".join(lines)
