"""Algorithm 4.2: joint reduction of the search space (Section 4.3).

An approximation of *pseudo subgraph isomorphism*: for each pattern node
``u`` and feasible mate ``v``, check whether the level-l adjacent subtree
of ``u`` is sub-isomorphic to that of ``v``.  The check is performed
iteratively: a bipartite graph ``B(u,v)`` is built between the neighbors of
``u`` and the neighbors of ``v`` (edge iff the neighbor pair survives in
the current space); if it has no semi-perfect matching, ``v`` is removed
from ``Phi(u)``.

Both implementation improvements from the paper are included:

* *marking*: only pairs whose bipartite graph may have changed are
  re-checked (pairs start marked; a successful check unmarks; removing
  ``v`` from ``Phi(u)`` re-marks the neighboring pairs);
* the pair set is kept in hashtables rather than a k x n matrix, so space
  is O(sum |Phi(u_i)|).
"""

from __future__ import annotations

from collections import Counter
from typing import AbstractSet, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.graph import Graph
from ..core.motif import SimpleMotif
from ..runtime import ExecutionContext
from .bipartite import has_semi_perfect_matching


class RefinementStats:
    """Instrumentation: how much work the refinement performed."""

    __slots__ = ("levels_run", "pairs_checked", "pairs_removed")

    def __init__(self) -> None:
        self.levels_run = 0
        self.pairs_checked = 0
        self.pairs_removed = 0

    def add(self, other: "RefinementStats") -> None:
        """Add another refinement's work to this one's (levels: the
        deeper of the two)."""
        self.levels_run = max(self.levels_run, other.levels_run)
        self.pairs_checked += other.pairs_checked
        self.pairs_removed += other.pairs_removed

    def __repr__(self) -> str:
        return (
            f"RefinementStats(levels={self.levels_run}, "
            f"checked={self.pairs_checked}, removed={self.pairs_removed})"
        )


def refine_search_space(
    motif: SimpleMotif,
    graph: Graph,
    space: Dict[str, Sequence[str]],
    level: Optional[int] = None,
    stats: Optional[RefinementStats] = None,
    context: Optional[ExecutionContext] = None,
    orbits: Optional[Mapping[str, str]] = None,
) -> Dict[str, List[str]]:
    """Run Algorithm 4.2 and return the reduced search space.

    Parameters
    ----------
    motif:
        The (ground) pattern structure.
    graph:
        The data graph.
    space:
        The input search space ``Phi`` (pattern node -> candidate ids).
    level:
        The refinement level ``l``; defaults to the number of pattern
        nodes (the paper's experiments set it to the query size).
    stats:
        Optional :class:`RefinementStats` to fill.
    context:
        Optional :class:`~repro.runtime.ExecutionContext`; ticked once
        per pair check.  Interruptions propagate to the caller — a
        partially refined space is still sound (refinement only ever
        removes candidates), so the planner may keep what was computed.
    orbits:
        Optional map from each pattern node to the first node of its
        orbit under the pattern's automorphisms
        (:attr:`~repro.matching.symmetry.Symmetry.orbit_of`).  When every
        orbit's members start with the same candidates, Φ stays the same
        across each orbit level after level, so only the first member's
        pairs are checked and the verdict holds for the whole orbit
        through one shared Φ set.  ``stats`` still count every pair
        decided, orbit members included.

    Notes
    -----
    The refinement is *sound*: it never removes a candidate that
    participates in a genuine subgraph-isomorphic embedding, because a real
    embedding restricted to neighbors is itself a semi-perfect matching.
    """
    node_names = motif.node_names()
    if level is None:
        level = max(1, len(node_names))

    # Phi as name -> set for O(1) membership; preserve candidate order
    phi: Dict[str, List[str]] = {u: list(space.get(u, ())) for u in node_names}
    pattern_neighbors: Dict[str, List[str]] = {
        u: motif.neighbors(u) for u in node_names
    }
    if orbits is not None and any(phi[u] != phi[orbits[u]]
                                  for u in node_names):
        orbits = None
    phi_sets: Dict[str, Set[str]] = {}
    if orbits is None:  # every node is its own orbit
        members: Mapping[str, int] = dict.fromkeys(node_names, 1)
        orbit_neighbors = pattern_neighbors
        for u in node_names:
            phi_sets[u] = set(phi[u])
    else:
        # one Phi set per orbit, checked through its first member; a
        # removal re-marks every orbit next to a member of its orbit
        members = Counter(orbits[u] for u in node_names)
        orbit_neighbors = {u: [] for u in members}
        for u in node_names:
            first = orbits[u]
            phi_sets[u] = phi_sets[first] if first != u else set(phi[u])
            around = orbit_neighbors[first]
            for up in pattern_neighbors[u]:
                if orbits[up] not in around:
                    around.append(orbits[up])
    # each data node's neighbour set, fetched once per call
    data_neighbors: Dict[str, AbstractSet[str]] = {}
    neighbor_set = graph.neighbor_set

    # marked pairs kept in a dict: no pair is queued twice.  The check
    # order does not matter: every check of a level sees the same Phi
    marked: Dict[Tuple[str, str], None] = {}
    for u in members:
        for v in phi[u]:
            marked[(u, v)] = None

    for _ in range(level):
        if not marked:
            break
        if stats is not None:
            stats.levels_run += 1
        # levels are synchronous: every check in level i sees Phi as of
        # the start of the level (exactly the Fig. 4.18 trace — A2 and C1
        # fall at level 1, B2 only at level 2 once A2's absence is
        # visible); removals apply between levels, so Phi itself is the
        # level's snapshot.  Every marked pair is checked and unmarked.
        checks, marked = marked, {}
        removals: List[Tuple[str, str]] = []
        for u, v in checks:
            if context is not None:
                context.tick()
            if stats is not None:
                stats.pairs_checked += members[u]
            neighbors_v = data_neighbors.get(v)
            if neighbors_v is None:
                neighbors_v = data_neighbors[v] = neighbor_set(v)
            # B(u, v): each pattern neighbour's edges are the neighbours
            # of v its Phi holds, one set intersection each
            neighbors_u = pattern_neighbors[u]
            if len(neighbors_u) == 1:  # B(u, v) has one left vertex
                matched = not neighbors_v.isdisjoint(phi_sets[neighbors_u[0]])
            else:
                matched = has_semi_perfect_matching(neighbors_u, {
                    up: neighbors_v & phi_sets[up] for up in neighbors_u})
            if not matched:
                removals.append((u, v))
        for u, v in removals:
            phi_sets[u].discard(v)
            if stats is not None:
                stats.pairs_removed += members[u]
        # re-mark the pairs whose bipartite graph lost the removed node
        for u, v in removals:
            neighbors_v = data_neighbors[v]
            for up in orbit_neighbors[u]:
                for vp in neighbors_v & phi_sets[up]:
                    marked[(up, vp)] = None

    return {u: [v for v in phi[u] if v in phi_sets[u]] for u in node_names}


def space_size(space: Dict[str, Sequence[str]]) -> int:
    """|Phi(u1)| * .. * |Phi(uk)| (Definition 4.9)."""
    total = 1
    for candidates in space.values():
        total *= len(candidates)
    return total


def space_reduction_ratio(
    space: Dict[str, Sequence[str]],
    baseline: Dict[str, Sequence[str]],
) -> float:
    """The reduction ratio of Section 5.1 (refined size / baseline size)."""
    base = space_size(baseline)
    if base == 0:
        return 0.0
    return space_size(space) / base
