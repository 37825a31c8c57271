"""Consistent-hash placement of graph ids onto shards.

A :class:`ShardMap` is the *placement function* of a cluster: which
shard serves which member graph of a collection.  Placement uses a
classic consistent-hash ring (each shard projected onto the ring at
:data:`RING_POINTS` points, a graph id owned by the first shard point
after its own hash).

The map is **fixed**: :func:`~repro.cluster.bootstrap.launch_cluster`
writes every slice into its shards' stores once and nothing ever moves
a slice's data afterwards, so a map that could change would only change
what it *claims* — a fan-out over a mutated map silently misses the
slices it no longer names.  The shard list and the replication factor
are the whole of its state.

Hashes come from :func:`hashlib.blake2b`, not :func:`hash` — Python
string hashing is salted per process, and the map must place a graph on
the same shard in the coordinator, the bootstrap that wrote the shard's
data file, and any tooling inspecting a serialized map.

**Replication** (``replication_factor=R``) extends placement from one
owner to an ordered *preference list* of R distinct shards per slice.
The first entry is the primary (the slice's :meth:`~ShardMap.owner`);
the rest are the distinct shards found by a ring-successor walk from
the primary's canonical ``#0`` ring anchor.  Anchoring the walk at the
primary — not at each graph's own hash — makes every graph of one
primary's slice share one preference list, so an *entire slice* can
fail over to one replica and the concatenation-merge stays
answer-preserving (the paper's graphs-at-a-time guarantee needs whole
slices, not scattered graph fragments).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Any, Dict, Iterable, List, Sequence, Tuple

#: ring points per shard
RING_POINTS = 64


def _point(value: str) -> int:
    """A stable 64-bit ring position for a string."""
    digest = hashlib.blake2b(value.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def slice_document(document: str, primary: str) -> str:
    """The wire document name of one primary's slice on any replica.

    With ``replication_factor >= 2`` every owner of a slice —
    primary included — registers it under this name, so a failover
    retargets the *same* document on a different process.
    """
    return f"{document}@{primary}"


class ShardMap:
    """Immutable consistent-hash assignment of graph ids to shard ids."""

    def __init__(self, shards: Sequence[str],
                 replication_factor: int = 1) -> None:
        if not shards:
            raise ValueError("a shard map needs at least one shard")
        if len(set(shards)) != len(shards):
            raise ValueError("duplicate shard ids")
        if replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        #: the shard ids, in registration order
        self.shards: Tuple[str, ...] = tuple(shards)
        self.replication_factor = replication_factor
        points = sorted((_point(f"{shard}#{index}"), shard)
                        for shard in self.shards
                        for index in range(RING_POINTS))
        self._ring = [point for point, _ in points]
        self._ring_owner = [shard for _, shard in points]

    def owner(self, graph_id: str) -> str:
        """The primary shard of *graph_id*."""
        index = bisect.bisect_right(self._ring, _point(graph_id))
        return self._ring_owner[index % len(self._ring)]  # a circle

    def split(self, graph_ids: Iterable[str]) -> Dict[str, List[str]]:
        """Graph ids grouped by owning shard (every shard present, so
        callers see empty shards explicitly rather than by omission)."""
        out: Dict[str, List[str]] = {shard: [] for shard in self.shards}
        for graph_id in graph_ids:
            out[self.owner(graph_id)].append(graph_id)
        return out

    def preference_list(self, shard: str) -> List[str]:
        """The failover order of *shard*'s slice: the shard itself,
        then its distinct ring successors from its ``#0`` anchor,
        ``replication_factor`` entries (capped at the shard count)."""
        if shard not in self.shards:
            raise ValueError(f"unknown shard {shard!r}")
        want = min(self.replication_factor, len(self.shards))
        owners = [shard]
        start = bisect.bisect_right(self._ring, _point(f"{shard}#0"))
        for offset in range(len(self._ring)):
            if len(owners) == want:
                break
            successor = self._ring_owner[(start + offset) % len(self._ring)]
            if successor not in owners:
                owners.append(successor)
        return owners

    def to_dict(self) -> Dict[str, Any]:
        return {"shards": list(self.shards),
                "replication_factor": self.replication_factor}

    def __repr__(self) -> str:
        return (f"<ShardMap {len(self.shards)} shard(s), "
                f"R={self.replication_factor}>")
