"""Sharded collection serving: placement, replication, failover.

A cluster splits one graph collection across N independent
:mod:`repro.service` servers ("shards") by consistent-hashing each
member graph's id onto the ring (:class:`ShardMap`, fixed for the
cluster's life: each slice's data is written once, at launch).  A
:class:`ClusterCoordinator` fans a query out to the owning shards over
the ndjson wire protocol and merges the per-shard answers under one
global limit and deadline.

With ``replication_factor >= 2`` every shard's slice also lives on its
ring-successor shards (an ordered *preference list*), the coordinator
**fails over** along that list instead of giving up on the first dead
process, and a :class:`ShardSupervisor` restarts dead shards from their
durable stores — so any *single* fault is absorbed silently.  Only when
an entire preference list is down does the coordinator degrade to a
structured ``PARTIAL`` :class:`~repro.runtime.QueryOutcome` that names
exactly which shards answered and which failed
(``submitted == merged + failed``).

The paper's graphs-at-a-time algebra is what makes this split safe:
operators consume and produce *collections of graphs*, and a pattern
match touches one member graph at a time, so a collection partitioned
by graph id yields the same answer set as the unsharded run — merging
is concatenation, never a join.  Replication leans on the same fact:
because a slice fails over as a whole (see
:func:`~repro.cluster.shardmap.slice_document`), the merged answer is
identical no matter which replica served it.
"""

from .shardmap import ShardMap, slice_document
from .coordinator import ClusterCoordinator, ClusterReply, ShardAnswer
from .bootstrap import LocalCluster, ShardProcess, launch_cluster, wait_ready
from .supervisor import ShardSupervisor

__all__ = [
    "ClusterCoordinator",
    "ClusterReply",
    "LocalCluster",
    "ShardAnswer",
    "ShardMap",
    "ShardProcess",
    "ShardSupervisor",
    "launch_cluster",
    "slice_document",
    "wait_ready",
]
