"""Algorithm 4.1: basic graph pattern matching.

A depth-first search over the product of feasible mates
``Phi(u1) x .. x Phi(uk)``.  ``Search(i)`` iterates candidates for the
i-th pattern node; ``Check(u_i, v)`` verifies edges back to already-mapped
pattern nodes (using the graph's O(1) end-point-pair edge hashtable) and
evaluates edge predicates.  When all nodes are mapped the residual
graph-wide predicate is evaluated and the mapping reported.  The
``exhaustive`` option selects one-vs-all mappings (Section 3.3).
"""

from __future__ import annotations

from typing import Callable, Collection, Dict, List, Optional, Sequence, Tuple

from ..core.bindings import AnswerTable, Block, Mapping, row_mapping
from ..core.graph import Graph
from ..core.pattern import GroundPattern
from ..runtime import ExecutionContext, ExecutionInterrupted, mapping_cost
from .symmetry import Getter


class SearchCounters:
    """Work counters of the backtracking search (Algorithm 4.1)."""

    __slots__ = ("candidates_tried", "check_calls", "partial_states", "results")

    def __init__(self) -> None:
        self.candidates_tried = 0
        self.check_calls = 0
        self.partial_states = 0
        self.results = 0

    def add(self, other: "SearchCounters") -> None:
        """Add another search's counts to these."""
        for slot in self.__slots__:
            setattr(self, slot, getattr(self, slot) + getattr(other, slot))

    def copy(self) -> "SearchCounters":
        """An independent copy of these counts."""
        twin = SearchCounters.__new__(SearchCounters)
        twin.candidates_tried = self.candidates_tried
        twin.check_calls = self.check_calls
        twin.partial_states = self.partial_states
        twin.results = self.results
        return twin

    def __repr__(self) -> str:
        return (
            f"SearchCounters(tried={self.candidates_tried}, "
            f"checks={self.check_calls}, states={self.partial_states}, "
            f"results={self.results})"
        )


def scan_feasible_mates(pattern: GroundPattern, graph: Graph) -> Dict[str, List[str]]:
    """Feasible mates by full scan: Phi(u) = {v | F_u(v)} (Definition 4.8)."""
    space: Dict[str, List[str]] = {}
    for name in pattern.node_names():
        fu = pattern.node_test(name)
        space[name] = [node.id for node in graph.nodes() if fu(node)]
    return space


def find_matches(
    pattern: GroundPattern,
    graph: Graph,
    candidates: Optional[Dict[str, Sequence[str]]] = None,
    order: Optional[Sequence[str]] = None,
    exhaustive: bool = True,
    limit: Optional[int] = None,
    initial: Optional[Dict[str, str]] = None,
    counters: Optional[SearchCounters] = None,
    context: Optional[ExecutionContext] = None,
) -> AnswerTable:
    """Run Algorithm 4.1 and return the feasible mappings as a one-block
    :class:`~repro.core.bindings.AnswerTable`.

    Parameters
    ----------
    candidates:
        The search space ``Phi`` (pattern node name -> candidate node ids).
        Computed by full scan when omitted.
    order:
        Search order over pattern node names (Section 4.4).  Defaults to
        declaration order.
    exhaustive:
        Return all mappings; when false, stop at the first (any *limit*).
    limit:
        Hard cap on the number of reported mappings (the paper terminates
        queries with more than 1000 answers); ``None`` means no cap, and
        a cap below 1 is a :class:`ValueError`.  Which mappings fill a
        cap is unspecified.
    initial:
        Pre-pinned assignments (used by the neighborhood-subgraph pruning
        check, which requires ``u`` mapped to ``v``).
    counters:
        Optional :class:`SearchCounters` to fill with search statistics.
    context:
        Optional :class:`~repro.runtime.ExecutionContext`.  The search
        ticks it once per candidate extension; on deadline expiry, step
        budget exhaustion or cancellation the search unwinds and the
        mappings found so far are returned (the interruption is recorded
        on the context, so callers can report a structured outcome).
        The context's memory cap also terminates the search early,
        inside the recursion.

    The order fixes which pattern nodes are mapped at every depth, so
    ``Check``'s work is planned once, before searching: per depth, the
    pattern edges back to earlier (or pinned) nodes, each with the
    direction to probe and whether its F_e can fail at all.  It fixes
    the table's schema too: node names are the pins, then the search
    order; edge names are the pins' edges, then each depth's back edges
    in order.  Each answer is one flat row, node ids then edge ids
    (:class:`~repro.core.bindings.Block`); a :class:`Mapping` is built
    at the leaf only to evaluate a graph-wide predicate F, when the
    pattern has one.

    Without pins, and when every orbit of the pattern's automorphism
    group (:meth:`~repro.core.pattern.GroundPattern.symmetry`) has the
    same candidates, the search finds one mapping ψ per automorphism
    class and emits ψ∘g for every automorphism g at its leaf: the same
    answers (node and edge key order included), found once.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    if candidates is None:
        candidates = scan_feasible_mates(pattern, graph)
    pins = initial or {}
    node_names = pattern.node_names()
    order = [n for n in (node_names if order is None else order)
             if n not in pins]
    missing = set(node_names) - set(order) - set(pins)
    if missing:
        raise ValueError(f"search order misses pattern nodes: {sorted(missing)}")
    if not exhaustive:
        limit = 1

    # Assignments are overwritten, never undone: depth i rewrites its
    # node and back edges before anything deeper reads them, and a row
    # is taken only when every depth has just written its own, so the
    # values (and their order) equal a fresh assignment's.
    mapping = Mapping()
    nodes, edges = mapping.nodes, mapping.edges
    used: set[str] = set()
    rows: List[Tuple[str, ...]] = []
    check = _compile_check(pattern, graph, nodes, edges)

    # pinned nodes: all mapped first, then each checked against every pin
    node_keys = tuple(pins) + tuple(order)
    for name, node_id in pins.items():
        if (not graph.has_node(node_id) or node_id in used
                or not pattern.node_matches(name, graph.node(node_id))):
            return AnswerTable([Block("", node_keys, (), ())])
        nodes[name] = node_id
        used.add(node_id)
    for name, node_id in pins.items():
        if counters is not None:
            counters.check_calls += 1
        if not check(_back_edges(pattern, name, pins, graph.directed), node_id):
            return AnswerTable([Block("", node_keys, (), ())])

    mapped = set(pins)
    steps = []
    edge_names = list(edges)
    for u in order:
        mapped.add(u)
        back = _back_edges(pattern, u, mapped, graph.directed)
        steps.append((u, candidates.get(u, ()), back))
        edge_names.extend([name for name, _, _, _ in back])
    depth = len(steps)
    schema = Block("", node_keys, tuple(edge_names), ())
    residual = pattern.decomposed.residual is not None
    cost = mapping_cost(len(node_keys) + len(edge_names))

    def accept(row: Tuple[str, ...]) -> bool:
        """Report one complete mapping; True when the search should stop."""
        rows.append(row)
        if counters is not None:
            counters.results += 1
        if context is not None and context.note_result(memory=cost):
            return True
        return limit is not None and len(rows) >= limit

    # Pattern symmetry: when the feasible mappings are closed under the
    # pattern's automorphisms, search only the canonical mapping of each
    # class and emit the rest at the leaf.  Per depth, ``bounds`` holds
    # the earlier nodes a canonical mapping maps below and above this
    # depth's node (the Grochow-Kellis constraints, checked at the depth
    # that maps their second node); per level of the group's stabiliser
    # chain, ``levels`` holds the identity (``tuple`` returns a tuple
    # itself) and then the coset representatives, as getters over flat
    # rows in the schema's order.
    bounds: List[Tuple[Tuple[str, ...], Tuple[str, ...]]] = []
    levels: Tuple[Tuple[Getter, ...], ...] = ()
    symmetry = None if pins else pattern.symmetry(graph.directed)
    if (symmetry is not None and not symmetry.trivial
            and symmetry.uniform(candidates)):
        at = {u: i for i, u in enumerate(order)}
        for i, u in enumerate(order):
            bounds.append((
                tuple(b for b, x in symmetry.constraints
                      if x == u and at[b] < i),
                tuple(x for b, x in symmetry.constraints
                      if b == u and at[x] < i)))
        levels = tuple((tuple,) + representatives
                       for representatives in symmetry.expansion(
                           node_keys, schema.edges))
        last = len(levels) - 1

        def accept_if_f(row: Tuple[str, ...]) -> bool:
            """:func:`accept` the row when F holds on its mapping."""
            return (pattern.residual_holds(row_mapping(schema, row), graph)
                    and accept(row))

        emit = accept_if_f if residual else accept

        def expand(level: int, row: Tuple[str, ...]) -> bool:
            """Emit ψ∘g for every g of the group from *level* on."""
            if level == last:
                for getter in levels[last]:
                    if emit(getter(row)):
                        return True
                return False
            for getter in levels[level]:
                if expand(level + 1, getter(row)):
                    return True
            return False

    def search(i: int) -> bool:
        """Return True when the search should stop early."""
        if counters is not None:
            counters.partial_states += 1
        if i == depth:
            if levels:
                return expand(0, (*nodes.values(), *edges.values()))
            if residual and not pattern.residual_holds(mapping, graph):
                return False
            return accept((*nodes.values(), *edges.values()))
        u, mates, back = steps[i]
        if bounds:  # only canonical mappings: φ(b) < φ(x)
            mates = _canonical_mates(mates, bounds[i], nodes)
        for v in mates:  # free candidates for u
            if v in used:
                continue
            if context is not None:
                context.tick()
            if counters is not None:
                counters.candidates_tried += 1
                counters.check_calls += 1
            nodes[u] = v  # a pattern self-loop probes (v, v)
            if not check(back, v):
                continue
            used.add(v)
            if search(i + 1):
                return True
            used.discard(v)
        return False

    try:
        if context is not None:
            context.check()
        search(0)
    except ExecutionInterrupted as exc:
        if context is None:
            raise
        context.mark_interrupted(exc)
    return AnswerTable([schema._replace(rows=tuple(rows))])


def _canonical_mates(
    mates: Sequence[str],
    bounds: Tuple[Tuple[str, ...], Tuple[str, ...]],
    nodes: Dict[str, str],
) -> Sequence[str]:
    """The candidates above every data node mapped to ``bounds[0]`` and
    below every one mapped to ``bounds[1]``."""
    below, above = bounds
    if below:
        low = max([nodes[b] for b in below])
        mates = [v for v in mates if v > low]
    if above:
        high = min([nodes[x] for x in above])
        mates = [v for v in mates if v < high]
    return mates


#: One back edge of a search step: (pattern edge name, the mapped pattern
#: node at its other end, whether the data pair is probed as (v, w) rather
#: than (w, v), whether its F_e holds for every data edge).
BackEdge = Tuple[str, str, bool, bool]


def _back_edges(
    pattern: GroundPattern,
    u: str,
    mapped: Collection[str],
    directed: bool,
) -> Tuple[BackEdge, ...]:
    """The pattern edges ``Check(u, v)`` verifies, in incident-edge
    order: those whose other end is in *mapped* (a self-loop counts)."""
    out = []
    decomposed_edges = pattern.decomposed.edge_preds
    for edge in pattern.motif.incident_edges(u):
        other = edge.target if edge.source == u else edge.source
        if other in mapped:
            trivial = (edge.tag is None and not edge.attrs
                       and edge.predicate is None
                       and edge.name not in decomposed_edges)
            out.append((edge.name, other, not directed or edge.source == u,
                        trivial))
    return tuple(out)


def _compile_check(
    pattern: GroundPattern,
    graph: Graph,
    nodes: Dict[str, str],
    edges: Dict[str, str],
) -> Callable[[Tuple[BackEdge, ...], str], bool]:
    """``Check(u_i, v)`` over a precomputed back-edge plan.

    One probe of the end-point-pair hashtable per back edge; F_e only for
    edges whose F_e can fail, memoized per (pattern edge, data edge) —
    Section 4.1: "to avoid repeated evaluation of edge predicates,
    another hashtable can be used to store evaluated pairs of edges".
    Each data edge found is recorded in *edges* under its pattern edge.
    """
    pair_get = graph.edge_pairs().get
    data_edge = graph.edge
    memo: Dict[Tuple[str, str], bool] = {}

    def check(back: Tuple[BackEdge, ...], v: str) -> bool:
        for name, other, forward, trivial in back:
            w = nodes[other]
            edge_id = pair_get((v, w) if forward else (w, v))
            if edge_id is None:
                return False
            if not trivial:
                ok = memo.get((name, edge_id))
                if ok is None:
                    ok = memo[name, edge_id] = pattern.edge_matches(
                        name, data_edge(edge_id))
                if not ok:
                    return False
            edges[name] = edge_id
        return True

    return check


def brute_force_matches(
    pattern: GroundPattern,
    graph: Graph,
    limit: Optional[int] = None,
) -> List[Mapping]:
    """Reference implementation: try every injective assignment.

    Exponential; only for testing the optimized search on small inputs.
    """
    import itertools

    names = pattern.node_names()
    node_ids = graph.node_ids()
    results: List[Mapping] = []
    for assignment in itertools.permutations(node_ids, len(names)):
        mapping = Mapping(dict(zip(names, assignment)))
        if _assignment_ok(pattern, graph, mapping):
            results.append(mapping)
            if limit is not None and len(results) >= limit:
                break
    return results


def _assignment_ok(pattern: GroundPattern, graph: Graph, mapping: Mapping) -> bool:
    for name in pattern.node_names():
        if not pattern.node_matches(name, graph.node(mapping.nodes[name])):
            return False
    for edge in pattern.motif.edges():
        v = mapping.nodes[edge.source]
        w = mapping.nodes[edge.target]
        data_edge = (
            _directed_edge(graph, v, w) if graph.directed else graph.edge_between(v, w)
        )
        if data_edge is None or not pattern.edge_matches(edge.name, data_edge):
            return False
        mapping.edges[edge.name] = data_edge.id
    return pattern.residual_holds(mapping, graph)


def _directed_edge(graph: Graph, source: str, target: str):
    """The directed data edge source->target, or None."""
    edge = graph.edge_between(source, target)
    if edge is not None and edge.source == source and edge.target == target:
        return edge
    return None
