"""Consistent-hash placement of graph ids onto shards.

A :class:`ShardMap` owns the *placement function* of a cluster: which
shard serves which member graph of a collection.  Placement uses a
classic consistent-hash ring (each shard projected onto the ring at
``replicas`` points, a graph id owned by the first shard point at or
after its own hash), so adding or removing one shard moves only
``~1/N`` of the graphs instead of reshuffling everything.

Hashes come from :func:`hashlib.blake2b`, not :func:`hash` — Python
string hashing is salted per process, and the map must place a graph on
the same shard in the coordinator, the bootstrap that wrote the shard's
data file, and any tooling inspecting a serialized map.

The map is **versioned**: every mutation (:meth:`add_shard`,
:meth:`remove_shard`, :meth:`move`) bumps ``version`` and returns the
:class:`ShardMove` list it caused, so a caller moving data knows
exactly which graphs changed hands.

**Replication** (``replication_factor=R``) extends placement from one
owner to an ordered *preference list* of R distinct shards per graph
id.  The first entry is the primary (identical to :meth:`owner`); the
rest are the distinct shards found by a ring-successor walk from the
primary's canonical ring anchor.  Anchoring the walk at the primary —
not at each graph's own hash — makes every graph of one primary's
slice share one preference list, so an *entire slice* can fail over to
one replica and the concatenation-merge stays answer-preserving (the
paper's graphs-at-a-time guarantee needs whole slices, not scattered
graph fragments).
"""

from __future__ import annotations

import bisect
import hashlib
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence


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


@dataclass(frozen=True)
class ShardMove:
    """One graph changing owner (``src is None`` for a first placement)."""

    graph_id: str
    src: Optional[str]
    dst: str

    def to_dict(self) -> Dict[str, Any]:
        return {"graph": self.graph_id, "from": self.src, "to": self.dst}


class ShardMap:
    """Versioned consistent-hash assignment of graph ids to shard ids.

    The ring decides *default* placement; :meth:`move` records explicit
    pins that override it (an operator draining a hot shard, a test
    forcing a layout).  Pins survive ring changes until their shard is
    removed.  All methods are thread-safe.
    """

    def __init__(self, shards: Sequence[str], replicas: int = 64,
                 version: int = 1,
                 pins: Optional[Dict[str, str]] = None,
                 replication_factor: int = 1) -> None:
        if not shards:
            raise ValueError("a shard map needs at least one shard")
        if len(set(shards)) != len(shards):
            raise ValueError("duplicate shard ids")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        self.replicas = replicas
        self.replication_factor = replication_factor
        self.version = version
        self._lock = threading.Lock()
        self._shards: List[str] = list(shards)
        self._pins: Dict[str, str] = dict(pins) if pins else {}
        for graph_id, shard in self._pins.items():
            if shard not in self._shards:
                raise ValueError(
                    f"pin {graph_id!r} -> {shard!r}: unknown shard")
        self._ring: List[int] = []
        self._ring_owner: List[str] = []
        self._rebuild_ring()

    # -- ring internals -------------------------------------------------------

    def _rebuild_ring(self) -> None:
        points = []
        for shard in self._shards:
            for replica in range(self.replicas):
                points.append((_point(f"{shard}#{replica}"), shard))
        points.sort()
        self._ring = [point for point, _ in points]
        self._ring_owner = [shard for _, shard in points]

    def _ring_owner_of(self, graph_id: str) -> str:
        index = bisect.bisect_right(self._ring, _point(graph_id))
        if index == len(self._ring):
            index = 0  # wrap: the ring is a circle
        return self._ring_owner[index]

    # -- placement ------------------------------------------------------------

    @property
    def shards(self) -> List[str]:
        """The shard ids, in registration order."""
        with self._lock:
            return list(self._shards)

    def owner(self, graph_id: str) -> str:
        """The primary shard of *graph_id* (pins win over the ring)."""
        with self._lock:
            pinned = self._pins.get(graph_id)
            return pinned if pinned is not None else \
                self._ring_owner_of(graph_id)

    def _successors_of(self, primary: str, count: int) -> List[str]:
        """*count* distinct shards: *primary* first, then its ring
        successors (walk from the primary's canonical ``#0`` anchor)."""
        want = min(count, len(self._shards))
        owners = [primary]
        if want <= 1:
            return owners
        start = bisect.bisect_right(self._ring, _point(f"{primary}#0"))
        for offset in range(len(self._ring)):
            shard = self._ring_owner[(start + offset) % len(self._ring)]
            if shard not in owners:
                owners.append(shard)
                if len(owners) == want:
                    break
        return owners

    def owners(self, graph_id: str) -> List[str]:
        """The ordered preference list of *graph_id*: its primary (pin
        or ring owner), then ``replication_factor - 1`` distinct
        ring-successor shards.  Capped at the shard count; every graph
        of one primary's slice shares the same list (see the module
        docstring)."""
        with self._lock:
            pinned = self._pins.get(graph_id)
            primary = (pinned if pinned is not None
                       else self._ring_owner_of(graph_id))
            return self._successors_of(primary, self.replication_factor)

    def preference_list(self, shard: str) -> List[str]:
        """The failover order of *shard*'s slice: the shard itself,
        then its ring successors, ``replication_factor`` entries."""
        with self._lock:
            if shard not in self._shards:
                raise ValueError(f"unknown shard {shard!r}")
            return self._successors_of(shard, self.replication_factor)

    def split(self, graph_ids: Iterable[str]) -> Dict[str, List[str]]:
        """Graph ids grouped by owning shard (every shard present, so
        callers see empty shards explicitly rather than by omission)."""
        with self._lock:
            out: Dict[str, List[str]] = {s: [] for s in self._shards}
            for graph_id in graph_ids:
                pinned = self._pins.get(graph_id)
                owner = (pinned if pinned is not None
                         else self._ring_owner_of(graph_id))
                out[owner].append(graph_id)
            return out

    # -- mutations (each bumps the version) -----------------------------------

    def move(self, graph_id: str, shard: str) -> List[ShardMove]:
        """Pin one graph to *shard*; returns the move it caused (empty
        when the graph already lived there)."""
        with self._lock:
            if shard not in self._shards:
                raise ValueError(f"unknown shard {shard!r}")
            src = self._pins.get(graph_id) or self._ring_owner_of(graph_id)
            if src == shard:
                return []
            self._pins[graph_id] = shard
            self.version += 1
            return [ShardMove(graph_id, src, shard)]

    def add_shard(self, shard: str,
                  known_ids: Iterable[str] = ()) -> List[ShardMove]:
        """Add a shard to the ring; returns the moves among *known_ids*
        (the graphs the new shard takes over from its neighbours)."""
        with self._lock:
            if shard in self._shards:
                raise ValueError(f"shard {shard!r} already mapped")
            before = {g: self._pins.get(g) or self._ring_owner_of(g)
                      for g in known_ids}
            self._shards.append(shard)
            self._rebuild_ring()
            self.version += 1
            return self._diff(before)

    def remove_shard(self, shard: str,
                     known_ids: Iterable[str] = ()) -> List[ShardMove]:
        """Drop a shard; its pins dissolve and its graphs among
        *known_ids* are reported moving to their new ring owners."""
        with self._lock:
            if shard not in self._shards:
                raise ValueError(f"unknown shard {shard!r}")
            if len(self._shards) == 1:
                raise ValueError("cannot remove the last shard")
            before = {g: self._pins.get(g) or self._ring_owner_of(g)
                      for g in known_ids}
            self._shards.remove(shard)
            self._pins = {g: s for g, s in self._pins.items() if s != shard}
            self._rebuild_ring()
            self.version += 1
            return self._diff(before)

    def _diff(self, before: Dict[str, str]) -> List[ShardMove]:
        moves = []
        for graph_id, src in before.items():
            dst = self._pins.get(graph_id) or self._ring_owner_of(graph_id)
            if dst != src:
                moves.append(ShardMove(graph_id, src, dst))
        return moves

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "shards": list(self._shards),
                "replicas": self.replicas,
                "version": self.version,
                "pins": dict(self._pins),
                "replication_factor": self.replication_factor,
            }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ShardMap":
        return cls(list(data["shards"]),
                   replicas=int(data.get("replicas", 64)),
                   version=int(data.get("version", 1)),
                   pins=dict(data.get("pins") or {}),
                   replication_factor=int(
                       data.get("replication_factor", 1)))

    def __repr__(self) -> str:
        return (f"<ShardMap v{self.version} {len(self._shards)} shard(s) "
                f"x{self.replicas} replicas, R={self.replication_factor}, "
                f"{len(self._pins)} pin(s)>")
