"""Maximum bipartite matching (Hopcroft–Karp).

Used by the joint search-space reduction of Section 4.3: pseudo subgraph
isomorphism reduces level-l subtree containment to the existence of a
*semi-perfect matching* (all left nodes matched) in a bipartite graph
between the neighbors of a pattern node and the neighbors of its candidate
mate.  Hopcroft and Karp's algorithm gives O(E * sqrt(V)).
"""

from __future__ import annotations

from collections import deque
from typing import Collection, Dict, Hashable, Mapping, Optional, Sequence

INFINITY = float("inf")


def hopcroft_karp(
    left: Sequence[Hashable],
    adjacency: Mapping[Hashable, Collection[Hashable]],
) -> Dict[Hashable, Hashable]:
    """Maximum matching of a bipartite graph.

    Parameters
    ----------
    left:
        The left vertex set.
    adjacency:
        For each left vertex, the right vertices it may match.

    Returns
    -------
    dict
        A maximum matching as ``{left_vertex: right_vertex}``.
    """
    match_left: Dict[Hashable, Optional[Hashable]] = {u: None for u in left}
    match_right: Dict[Hashable, Optional[Hashable]] = {}
    dist: Dict[Hashable, float] = {}

    def bfs() -> bool:
        queue = deque()
        for u in left:
            if match_left[u] is None:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INFINITY
        found_augmenting = False
        while queue:
            u = queue.popleft()
            for v in adjacency.get(u, ()):
                owner = match_right.get(v)
                if owner is None:
                    found_augmenting = True
                elif dist[owner] == INFINITY:
                    dist[owner] = dist[u] + 1
                    queue.append(owner)
        return found_augmenting

    def dfs(u: Hashable) -> bool:
        for v in adjacency.get(u, ()):
            owner = match_right.get(v)
            if owner is None or (dist[owner] == dist[u] + 1 and dfs(owner)):
                match_left[u] = v
                match_right[v] = u
                return True
        dist[u] = INFINITY
        return False

    while bfs():
        for u in left:
            if match_left[u] is None:
                dfs(u)
    return {u: v for u, v in match_left.items() if v is not None}


def has_semi_perfect_matching(
    left: Sequence[Hashable],
    adjacency: Mapping[Hashable, Collection[Hashable]],
) -> bool:
    """Whether every left vertex can be matched (semi-perfect matching).

    Fails fast when some left vertex has no candidates at all.  A greedy
    pass (each left vertex takes its first free candidate) settles most
    checks; Hopcroft–Karp runs only when the greedy pass leaves a left
    vertex unmatched, so the verdict is always the maximum matching's.
    """
    taken = set()
    greedy = True
    for u in left:
        candidates = adjacency.get(u)
        if not candidates:
            return False
        if greedy:
            for v in candidates:
                if v not in taken:
                    taken.add(v)
                    break
            else:
                greedy = False
    return greedy or len(hopcroft_karp(left, adjacency)) == len(left)
