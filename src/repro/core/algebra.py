"""The graph algebra (Section 3.3).

Bulk operators over collections of graphs, defined along the lines of the
relational algebra:

* **selection** σ_P(C) — generalized to graph pattern matching; returns
  matched graphs ⟨Φ, P, G⟩;
* **Cartesian product** C × D — composes pairs of graphs into one graph
  with the constituents as (unconnected) members;
* **join** C ⋈_P D — a product followed by a selection (valued join); a
  structural join adds composition;
* **composition** ω_T(C) — instantiates a graph template per input graph;
* set operators **union / difference / intersection**;
* **projection** and **renaming**, expressed through composition.

The five basic operators (selection, product, primitive composition,
union, difference) are complete; everything else here is sugar over them.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Union

from ..matching.planner import MatchOptions, MemberRun, match_members
from ..runtime import ExecutionContext
from .bindings import MatchedGraph, as_graph
from .collection import GraphCollection
from .graph import Graph, disjoint_union
from .pattern import GraphPattern, GroundPattern
from .predicate import Expr, Scope
from .template import GraphTemplate

PatternLike = Union[GraphPattern, GroundPattern]


def matched_graphs(runs: Iterable[MemberRun]) -> GraphCollection:
    """The runs of :func:`match_members` as matched graphs ⟨Φ, P, G⟩."""
    out = GraphCollection()
    for run in runs:
        for mapping in run.report.mappings:
            out.add(MatchedGraph(mapping, run.ground, run.matcher.graph))
    return out


def select(
    collection: GraphCollection,
    pattern: PatternLike,
    exhaustive: bool = True,
    limit: Optional[int] = None,
    grammar=None,
    max_depth: int = 8,
    context: Optional[ExecutionContext] = None,
) -> GraphCollection:
    """The selection operator σ_P(C) (Section 3.3).

    Returns a collection of :class:`MatchedGraph`.  With ``exhaustive``
    every mapping of every graph is returned (a graph can match in many
    places); otherwise at most one mapping per graph.  *limit* caps the
    whole selection.  :func:`~repro.matching.planner.match_members`
    runs the members and picks each one's access method.

    *context* governs the whole selection: the per-graph searches share
    its deadline/budgets, and an interrupted selection returns the
    matches found so far (check ``context.outcome()`` for the status).
    """
    return matched_graphs(match_members(
        collection, pattern.ground(grammar, max_depth),
        MatchOptions(exhaustive=exhaustive, limit=limit), context=context))


def cartesian_product(
    left: GraphCollection,
    right: GraphCollection,
    left_name: str = "G1",
    right_name: str = "G2",
    context: Optional[ExecutionContext] = None,
) -> GraphCollection:
    """C × D: each output graph contains one member from each input.

    The constituent graphs are unconnected members of the result, reachable
    through qualified ids (``G1.v1``) and the ``members`` mapping.
    """
    out = GraphCollection()
    for graph_a in left:
        for graph_b in right:
            if context is not None:
                context.tick()
            out.add(
                disjoint_union(
                    {left_name: as_graph(graph_a), right_name: as_graph(graph_b)}
                )
            )
    return out


def join(
    left: GraphCollection,
    right: GraphCollection,
    condition: Union[PatternLike, Expr],
    left_name: str = "G1",
    right_name: str = "G2",
    context: Optional[ExecutionContext] = None,
) -> GraphCollection:
    """C ⋈_P D: Cartesian product followed by selection.

    *condition* is either a graph pattern (applied to the composite graph)
    or a bare predicate expression over the member graphs (a valued join,
    Fig. 4.10), evaluated with ``G1``/``G2`` bound to the members.
    """
    product = cartesian_product(left, right, left_name, right_name,
                                context=context)
    if isinstance(condition, (GraphPattern, GroundPattern)):
        return select(product, condition, context=context)
    out = GraphCollection()
    for composite in product:
        if context is not None:
            context.tick()
        scope = Scope(
            {alias: member for alias, member in composite.members.items()},
            fallback=composite,
        )
        if condition.holds(scope):
            out.add(composite)
    return out


def compose(
    template: GraphTemplate,
    *collections: GraphCollection,
    param_names: Optional[Sequence[str]] = None,
) -> GraphCollection:
    """The composition operator ω_T (Section 3.3).

    With one collection this is the primitive composition: one output
    graph per input graph.  With several collections, their Cartesian
    product feeds the template (one output per combination), matching the
    paper's reduction ω_T(C1, C2) = ω'_T(C1 × C2).
    """
    names = list(param_names) if param_names is not None else template.params
    if len(names) != len(collections):
        raise ValueError(
            f"template expects {len(names)} collections, got {len(collections)}"
        )
    out = GraphCollection()

    def recurse(index: int, chosen: Dict[str, Union[Graph, MatchedGraph]]) -> None:
        if index == len(names):
            out.add(template.instantiate(dict(chosen)))
            return
        for graph_like in collections[index]:
            chosen[names[index]] = graph_like
            recurse(index + 1, chosen)
            del chosen[names[index]]

    recurse(0, {})
    return out


def union(left: GraphCollection, right: GraphCollection) -> GraphCollection:
    """Set union of two collections."""
    return left.union(right)


def difference(left: GraphCollection, right: GraphCollection) -> GraphCollection:
    """Set difference of two collections."""
    return left.difference(right)


def intersection(left: GraphCollection, right: GraphCollection) -> GraphCollection:
    """Set intersection (derivable from difference; provided directly)."""
    return left.intersection(right)


# -- operators expressed through composition (Theorem 4.5 machinery) -------------


def project(
    collection: GraphCollection,
    pattern: PatternLike,
    attr_paths: Dict[str, str],
) -> GraphCollection:
    """Projection: rewrite selected attributes onto a fresh single node.

    *attr_paths* maps output attribute names to dotted paths into the
    pattern binding (e.g. ``{"name": "P.v1.name"}``).  This is the
    construction used in the proof of Theorem 4.5 (RA ⊆ GraphQL).
    """
    from .predicate import AttrRef

    matched = select(collection, pattern)
    pattern_name = pattern.name or "P"
    template = GraphTemplate([pattern_name])
    template.add_node(
        "v1",
        attr_exprs={
            out_name: AttrRef(tuple(path.split(".")))
            for out_name, path in attr_paths.items()
        },
    )
    out = GraphCollection()
    for matched_graph in matched:
        out.add(template.instantiate({pattern_name: matched_graph}))
    return out


def rename(
    collection: GraphCollection,
    renames: Dict[str, str],
) -> GraphCollection:
    """Renaming: per graph, rename node attributes via composition.

    *renames* maps old attribute names to new ones; node structure is
    preserved.
    """
    from .tuples import AttributeTuple

    out = GraphCollection()
    for graph_like in collection:
        graph = as_graph(graph_like).copy()
        for node in graph.nodes():
            if any(old in node.tuple for old in renames):
                attrs = {
                    renames.get(key, key): val for key, val in node.tuple.items()
                }
                node.tuple = AttributeTuple(attrs, tag=node.tuple.tag)
        out.add(graph)
    return out
