"""The cluster answers what one service over the whole collection answers.

Each shard is an in-process :class:`QueryService` holding exactly what
``launch_cluster`` writes into that shard's store
(:func:`~repro.cluster.bootstrap.shard_documents`: the map's ``split``
and ``preference_list``, slices named by ``slice_document``), reached
through the coordinator's ``client_factory`` seam.  The merged rows,
without their ``"shard"`` tag, must equal one service's rows: the
paper's σ_P over a collection is the concatenation of its members'
answers, whichever process holds which member.
"""

import json
from collections import Counter
from contextlib import ExitStack

import pytest

from repro.cluster import ClusterCoordinator, ShardMap
from repro.cluster.bootstrap import shard_documents
from repro.core import GraphCollection
from repro.datasets.molecules import molecule_collection
from repro.runtime import Outcome
from repro.service import QueryService, ServiceConfig
from repro.service.client import ClientReply
from repro.service.protocol import AnswerRows, decode, encode

SHARDS = 4
QUERY = ('graph P { node a <label="C">; node b <label="C">; '
         'edge e1 (a, b); }')


class InProcessClient:
    """The ``ServiceClient`` surface the coordinator uses, answered by a
    :class:`QueryService` in this process instead of over TCP."""

    def __init__(self, service, down=False):
        if down:
            raise ConnectionRefusedError("shard is down")
        self.service = service

    def close(self):
        return None

    def query(self, text, document="data", request_id=None, timeout=None,
              limit=None, max_steps=None, baseline=False, no_cache=False):
        response = self.service.execute(
            text, document=document, request_id=request_id,
            timeout=timeout, limit=limit, max_steps=max_steps,
            baseline=baseline, use_cache=not no_cache)
        wire = decode(encode(response.to_dict()))
        return ClientReply(
            ok=response.error is None, request_id=response.request_id,
            results=AnswerRows.from_wire(wire["blocks"]),
            outcome=response.outcome, error=response.error,
            versions=wire.get("versions", {}))

    def cancel(self, target, reason=""):
        return self.service.cancel(target, reason=reason)


def canonical(rows):
    """Rows without the coordinator's shard tag, in one fixed order."""
    return sorted(json.dumps({k: v for k, v in row.items() if k != "shard"},
                             sort_keys=True) for row in rows)


@pytest.fixture(scope="module")
def collection():
    return molecule_collection(num_molecules=16, seed=5)


@pytest.fixture(scope="module")
def expected(collection):
    with QueryService(ServiceConfig(workers=1)) as service:
        service.register("data", collection)
        response = service.execute(QUERY, document="data")
    assert response.outcome.status is Outcome.COMPLETE
    assert response.results
    return response.results


def serve(stack, shard_map, collection, down=()):
    """A coordinator over one in-process service per shard; the shards
    in *down* refuse every connection."""
    services = {}
    for shard, documents in shard_documents(
            shard_map, collection, "data").items():
        service = stack.enter_context(QueryService(ServiceConfig(workers=2)))
        for name, graphs in documents.items():
            service.register(name, GraphCollection(graphs, name=name))
        services[shard] = service
    endpoints = {shard: ("in-process", index)
                 for index, shard in enumerate(shard_map.shards)}

    def factory(host, port, timeout=None, client_name=""):
        shard = shard_map.shards[port]
        return InProcessClient(services[shard], down=shard in down)

    return ClusterCoordinator(shard_map, endpoints, timeout=30.0,
                              client_factory=factory)


@pytest.mark.parametrize("replication", [1, 2])
def test_the_cluster_answers_what_one_service_answers(
        collection, expected, replication):
    shard_map = ShardMap([f"shard{i}" for i in range(SHARDS)], replication)
    with ExitStack() as stack:
        reply = serve(stack, shard_map, collection).query(QUERY)
    assert reply.outcome.status is Outcome.COMPLETE
    assert reply.merged == SHARDS
    assert canonical(reply.results) == canonical(expected)


@pytest.mark.parametrize("replication", [1, 2])
def test_a_capped_query_returns_limit_rows_on_both_paths(
        collection, expected, replication):
    """``limit`` caps the query's whole answer: one service and the
    sharded cluster both return exactly *limit* rows, TRUNCATED, each a
    sub-bag of the uncapped answer (which rows fill the cap may
    differ)."""
    limit = len(expected) // 3
    shard_map = ShardMap([f"shard{i}" for i in range(SHARDS)], replication)
    with ExitStack() as stack:
        sharded = serve(stack, shard_map, collection).query(QUERY,
                                                            limit=limit)
        single = stack.enter_context(QueryService(ServiceConfig(workers=1)))
        single.register("data", collection)
        one = single.execute(QUERY, document="data", limit=limit)
    whole = Counter(canonical(expected))
    for rows, outcome in ((sharded.results, sharded.outcome),
                          (one.results, one.outcome)):
        assert len(rows) == limit
        assert outcome.status is Outcome.TRUNCATED
        assert not Counter(canonical(rows)) - whole


def test_a_dead_shard_under_replication_keeps_the_answer_whole(
        collection, expected):
    shard_map = ShardMap([f"shard{i}" for i in range(SHARDS)], 2)
    victim = next(s for s, owned in shard_map.split(
        g.name for g in collection).items() if owned)
    with ExitStack() as stack:
        reply = serve(stack, shard_map, collection,
                      down={victim}).query(QUERY)
    assert reply.outcome.status is Outcome.COMPLETE
    assert reply.outcome.detail["shards"][victim]["replica_used"] != victim
    assert canonical(reply.results) == canonical(expected)


def test_a_dead_shard_without_replication_loses_exactly_its_slice(
        collection, expected):
    shard_map = ShardMap([f"shard{i}" for i in range(SHARDS)])
    split = shard_map.split(g.name for g in collection)
    victim = next(s for s, owned in split.items() if owned)
    with ExitStack() as stack:
        reply = serve(stack, shard_map, collection,
                      down={victim}).query(QUERY)
    assert reply.outcome.status is Outcome.PARTIAL
    assert reply.failed == 1 and victim in reply.outcome.reason
    live = [row for row in expected if row["graph"] not in split[victim]]
    assert live and len(live) < len(expected)
    assert canonical(reply.results) == canonical(live)
