"""Pattern automorphisms: search once per symmetry class (Section 4.1).

A clique of one label matches every ordering of the same data nodes:
a one-label 7-clique has 5,040 automorphisms, so Algorithm 4.1 finds
each matched subgraph 5,040 times.  σ's answer is a bag of injective
mappings, so every one of them is still an answer; this module lets
the search *find* each subgraph once and *emit* the rest.

:func:`automorphisms` computes the group of node permutations that
preserve a ground pattern as the matcher sees it:

* node colours are the F_u groups of
  :meth:`~repro.core.pattern.GroundPattern.shared_node_tests`, so a node
  with a predicate (own or pushed down) is fixed;
* an edge's colour is its tag and attributes, or its own name when it
  carries a predicate (own or pushed down); edge direction counts only
  against directed data graphs.

Colour refinement (1-WL) runs first; when it leaves every cell a
singleton the group is trivial and no search runs.  Otherwise base
points are individualised one at a time, and a stabiliser chain is
built bottom-up: for each base point, the automorphisms fixing the
earlier ones are searched for only until their orbit is closed under
the generators already found (a Schreier transversal).  What is kept is
the base points, the orbit of each under the stabiliser of the earlier
ones, one coset representative per orbit element (a node and an edge
permutation over declaration indices, at most k(k-1)/2 of them) and the
orbits of the full group — nothing proportional to the group's order.

The search uses it twice (:mod:`repro.matching.basic`): the
Grochow–Kellis constraints ``φ(b_i) < φ(x)`` for every ``x`` in
``b_i``'s orbit (RECOMB 2007) leave exactly one mapping ψ per
automorphism class, and ψ∘g for every g in the group is emitted by a
walk over the chain, one representative per level.  Profile pruning and
Algorithm 4.2 share their work across orbits (:attr:`Symmetry.orbit_of`).
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:
    from ..core.pattern import GroundPattern

#: A permutation of declaration indices: ``perm[i]`` is the image of ``i``.
Perm = Tuple[int, ...]
#: Applies a permutation to a flat answer row, in C.
Getter = Callable[[Tuple[str, ...]], Tuple[str, ...]]

#: Backtracking steps :func:`automorphisms` may spend on one pattern
#: before it gives up and reports the trivial group (always sound).
SEARCH_BUDGET = 20_000


class Level(NamedTuple):
    """One level of the stabiliser chain.

    ``orbit`` is the orbit of the base point ``orbit[0]`` under the
    stabiliser of the earlier base points; ``nodes[j]``/``edges[j]``
    are the node and edge permutations of a representative mapping the
    base point to ``orbit[j]`` (the identity for ``j = 0``)."""

    orbit: Tuple[int, ...]
    nodes: Tuple[Perm, ...]
    edges: Tuple[Perm, ...]


class Symmetry:
    """The automorphism group of one ground pattern, as a stabiliser chain."""

    __slots__ = ("node_names", "edge_names", "levels", "trivial",
                 "orbit_of", "constraints", "_compiled")

    def __init__(
        self,
        node_names: Sequence[str],
        edge_names: Sequence[str],
        levels: Sequence[Level] = (),
        orbit_of: Optional[Dict[str, str]] = None,
    ) -> None:
        self.node_names: Tuple[str, ...] = tuple(node_names)
        self.edge_names: Tuple[str, ...] = tuple(edge_names)
        self.levels: Tuple[Level, ...] = tuple(levels)
        #: whether the identity is the only automorphism
        self.trivial = not self.levels
        #: pattern node -> the first node, in declaration order, of its
        #: orbit under the whole group (itself when the group is trivial)
        self.orbit_of: Dict[str, str] = (
            orbit_of if orbit_of is not None
            else {name: name for name in self.node_names})
        #: ``(b, x)`` pairs: a canonical mapping has ``φ(b) < φ(x)``
        self.constraints: Tuple[Tuple[str, str], ...] = tuple(
            (self.node_names[level.orbit[0]], self.node_names[x])
            for level in self.levels for x in level.orbit[1:])
        self._compiled: Optional[Tuple[Tuple[Tuple[str, ...], Tuple[str, ...]],
                                       Tuple[Tuple[Getter, ...], ...]]] = None

    def order(self) -> int:
        """|Aut|: the product of the chain's orbit lengths."""
        total = 1
        for level in self.levels:
            total *= len(level.orbit)
        return total

    def uniform(self, candidates: Mapping[str, Sequence[str]]) -> bool:
        """Whether every orbit's members have the same candidates (the
        same list, or the same multiset): only then is the set of
        feasible mappings closed under the group."""
        for name in self.node_names:
            first = self.orbit_of[name]
            if first == name:
                continue
            mine, theirs = candidates.get(name, ()), candidates.get(first, ())
            if mine != theirs and sorted(mine) != sorted(theirs):
                return False
        return True

    def expansion(
        self,
        node_keys: Sequence[str],
        edge_keys: Sequence[str],
    ) -> Tuple[Tuple[Getter, ...], ...]:
        """Per chain level, the non-identity representatives as getters
        over a flat answer row (node ids in *node_keys* order, then edge
        ids in *edge_keys* order): applied to ψ's row, a getter gives
        ψ∘r.  A non-trivial automorphism moves at least two nodes, so
        every getter reads at least two indices and returns a tuple.
        The last key order asked for is kept compiled."""
        keys = (tuple(node_keys), tuple(edge_keys))
        compiled = self._compiled
        if compiled is not None and compiled[0] == keys:
            return compiled[1]
        node_at = {name: i for i, name in enumerate(self.node_names)}
        edge_at = {name: i for i, name in enumerate(self.edge_names)}
        width = len(keys[0])
        node_pos = {name: i for i, name in enumerate(keys[0])}
        edge_pos = {name: width + i for i, name in enumerate(keys[1])}
        node_order = [node_at[name] for name in keys[0]]
        edge_order = [edge_at[name] for name in keys[1]]
        levels = tuple(
            tuple(itemgetter(*[node_pos[self.node_names[nodes[i]]]
                               for i in node_order],
                             *[edge_pos[self.edge_names[edges[i]]]
                               for i in edge_order])
                  for nodes, edges in zip(level.nodes[1:], level.edges[1:]))
            for level in self.levels)
        self._compiled = (keys, levels)
        return levels

    def __repr__(self) -> str:
        return f"Symmetry(|Aut|={self.order()}, orbit_of={self.orbit_of})"


# --------------------------------------------------------------------------
# Computing the group
# --------------------------------------------------------------------------


class _OutOfBudget(Exception):
    """The automorphism search spent :data:`SEARCH_BUDGET` steps."""


#: per node: ``(edge colour, direction, other end)``; direction 0 is
#: undirected or outgoing, 1 incoming, 2 a self-loop
_Adjacency = List[List[Tuple[int, int, int]]]
#: per ordered node pair: the sorted edge colours joining them
_Pairs = List[Dict[int, Tuple[int, ...]]]


def automorphisms(pattern: "GroundPattern", directed: bool) -> Symmetry:
    """The automorphism group of *pattern* against data graphs of the
    given directedness (see the module docstring)."""
    motif = pattern.motif
    names = motif.node_names()
    shared = pattern.shared_node_tests()
    if len(set(shared.values())) == len(names):  # every node fixed by F_u
        return Symmetry(names, motif.edge_names())
    edges = list(motif.edges())
    edge_names = [edge.name for edge in edges]
    trivial = Symmetry(names, edge_names)
    at = {name: i for i, name in enumerate(names)}
    colours = _canonical([at[shared[name]] for name in names])

    edge_preds = pattern.decomposed.edge_preds
    edge_colour: Dict[Hashable, int] = {}
    colour_of_edge: List[int] = []
    for edge in edges:
        key: Hashable = ("name", edge.name)
        if edge.predicate is None and edge_preds.get(edge.name) is None:
            key = (edge.tag, tuple((attr, type(value), value)
                                   for attr, value in edge.attrs.items()))
        try:
            colour = edge_colour.setdefault(key, len(edge_colour))
        except TypeError:  # an unhashable attribute value
            colour = edge_colour.setdefault(("name", edge.name),
                                            len(edge_colour))
        colour_of_edge.append(colour)

    k = len(names)
    adjacency: _Adjacency = [[] for _ in range(k)]
    pairs: _Pairs = [{} for _ in range(k)]
    ends: List[Tuple[int, int]] = []
    for edge, colour in zip(edges, colour_of_edge):
        s, t = at[edge.source], at[edge.target]
        if not directed and s > t:
            s, t = t, s
        ends.append((s, t))
        if s == t:
            adjacency[s].append((colour, 2, s))
        else:
            adjacency[s].append((colour, 0, t))
            adjacency[t].append((colour, 0 if not directed else 1, s))
        pairs[s][t] = pairs[s].get(t, ()) + (colour,)
        if not directed and s != t:
            pairs[t][s] = pairs[t].get(s, ()) + (colour,)
    for row in pairs:
        for other, joined in row.items():
            row[other] = tuple(sorted(joined))

    colours = _refine(colours, adjacency)
    if len(set(colours)) == k:
        return trivial
    try:
        levels, generators = _chain(colours, adjacency, pairs, ends,
                                    colour_of_edge, directed)
    except _OutOfBudget:
        return trivial
    if not levels:
        return trivial
    # orbits of the whole group: the generators' cycles, joined
    parent = list(range(k))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for perm, _ in generators:
        for i, image in enumerate(perm):
            a, b = root(i), root(image)
            if a != b:
                parent[max(a, b)] = min(a, b)
    orbit_of = {name: names[root(i)] for i, name in enumerate(names)}
    return Symmetry(names, edge_names, levels, orbit_of)


def _canonical(values: Sequence[Any]) -> List[int]:
    """Relabel sortable values by rank, so equal structure gets equal
    colours on both sides of a comparison."""
    rank = {value: r for r, value in enumerate(sorted(set(values)))}
    return [rank[value] for value in values]


def _refine(colours: List[int], adjacency: _Adjacency) -> List[int]:
    """Colour refinement to the coarsest equitable partition: a node's
    next colour is its colour plus the sorted colours around it."""
    cells = len(set(colours))
    while True:
        signatures = [
            (colours[i], tuple(sorted((c, d, colours[j])
                                      for c, d, j in adjacency[i])))
            for i in range(len(colours))]
        refined = _canonical(signatures)
        count = max(refined, default=-1) + 1
        if count == cells:
            return refined
        colours, cells = refined, count


def _individualise(colours: Sequence[int], node: int) -> List[int]:
    """*node* in a cell of its own, just after its old cell."""
    return [2 * c + (1 if i == node else 0) for i, c in enumerate(colours)]


def _chain(
    colours: List[int],
    adjacency: _Adjacency,
    pairs: _Pairs,
    ends: List[Tuple[int, int]],
    colour_of_edge: List[int],
    directed: bool,
) -> Tuple[List[Level], List[Tuple[Perm, Perm]]]:
    """The stabiliser chain and the generators that span it."""
    k = len(colours)
    # base points, top down: partitions[i] has bases[:i] individualised
    bases: List[int] = []
    partitions = [colours]
    while len(set(partitions[-1])) < k:
        current = partitions[-1]
        sizes: Dict[int, int] = {}
        for c in current:
            sizes[c] = sizes.get(c, 0) + 1
        base = next(i for i in range(k) if sizes[current[i]] > 1)
        bases.append(base)
        partitions.append(_refine(_individualise(current, base), adjacency))

    search = _Search(colours, adjacency, pairs)
    edge_buckets: Dict[Tuple[int, int, int], List[int]] = {}
    for e, ((s, t), colour) in enumerate(zip(ends, colour_of_edge)):
        edge_buckets.setdefault((colour, s, t), []).append(e)

    def edge_perm(perm: Perm) -> Perm:
        taken: Dict[Tuple[int, int, int], int] = {}
        images: List[int] = []
        for (s, t), colour in zip(ends, colour_of_edge):
            a, b = perm[s], perm[t]
            if not directed and a > b:
                a, b = b, a
            key = (colour, a, b)
            used = taken.get(key, 0)
            taken[key] = used + 1
            images.append(edge_buckets[key][used])
        return tuple(images)

    identity = (tuple(range(k)), tuple(range(len(ends))))
    generators: List[Tuple[Perm, Perm]] = []
    levels: List[Level] = []
    # bottom up: the generators found below fix every earlier base point,
    # so they move each base point within its orbit for free
    for i in range(len(bases) - 1, -1, -1):
        base, before = bases[i], partitions[i]
        reps: Dict[int, Tuple[Perm, Perm]] = {base: identity}
        _close(reps, generators)
        for target in range(k):
            if target in reps or before[target] != before[base]:
                continue
            found = search.find(
                partitions[i + 1],
                _refine(_individualise(before, target), adjacency))
            if found is not None:
                generators.append((found, edge_perm(found)))
                _close(reps, generators)
        if len(reps) > 1:
            orbit = (base,) + tuple(sorted(x for x in reps if x != base))
            levels.append(Level(orbit,
                                tuple(reps[x][0] for x in orbit),
                                tuple(reps[x][1] for x in orbit)))
    levels.reverse()
    return levels, generators


def _close(reps: Dict[int, Tuple[Perm, Perm]],
           generators: List[Tuple[Perm, Perm]]) -> None:
    """Extend the transversal *reps* to the orbit of its base point under
    *generators*: ``reps[g(x)] = g ∘ reps[x]``."""
    queue = list(reps)
    while queue:
        x = queue.pop()
        nodes, edges = reps[x]
        for g_nodes, g_edges in generators:
            image = g_nodes[x]
            if image not in reps:
                reps[image] = (tuple(g_nodes[i] for i in nodes),
                               tuple(g_edges[e] for e in edges))
                queue.append(image)


class _Search:
    """Backtracking for one automorphism between two equitable colourings
    (the left one maps onto the right one, colour for colour).

    Whatever the colourings say, a permutation is only returned when it
    keeps every node's *colours* (the pattern's own, refined once) and
    the edge colours joining every ordered pair of nodes: an
    automorphism by construction, not by trust in the refinement."""

    def __init__(self, colours: List[int], adjacency: _Adjacency,
                 pairs: _Pairs) -> None:
        self.colours = colours
        self.adjacency = adjacency
        self.pairs = pairs
        self.budget = SEARCH_BUDGET

    def find(self, left: List[int], right: List[int]) -> Optional[Perm]:
        if sorted(left) != sorted(right):
            return None
        k = len(left)
        cells: Dict[int, List[int]] = {}
        for node, colour in enumerate(right):
            cells.setdefault(colour, []).append(node)
        # map the most constrained node next: small cells, then many
        # edges to nodes already placed
        order: List[int] = []
        placed = [False] * k
        links = [0] * k
        for _ in range(k):
            best = min((x for x in range(k) if not placed[x]),
                       key=lambda x: (len(cells[left[x]]), -links[x], x))
            order.append(best)
            placed[best] = True
            for _, _, other in self.adjacency[best]:
                links[other] += 1
        pairs, colours = self.pairs, self.colours
        image = [-1] * k
        used = [False] * k

        def extend(depth: int) -> bool:
            if depth == k:
                return True
            x = order[depth]
            row = pairs[x]
            mates = cells[left[x]]
            if x in mates:  # try the identity first: it is often right
                mates = [x] + [y for y in mates if y != x]
            for y in mates:
                if used[y] or colours[x] != colours[y]:
                    continue
                self.budget -= 1
                if self.budget < 0:
                    raise _OutOfBudget()
                other_row = pairs[y]
                if row.get(x, ()) != other_row.get(y, ()):
                    continue
                for placed_x in order[:depth]:
                    placed_y = image[placed_x]
                    if (row.get(placed_x, ()) != other_row.get(placed_y, ())
                            or pairs[placed_x].get(x, ())
                            != pairs[placed_y].get(y, ())):
                        break
                else:
                    image[x], used[y] = y, True
                    if extend(depth + 1):
                        return True
                    used[y] = False
            return False

        return tuple(image) if extend(0) else None
