"""A replica that stalls over a real socket fails over inside the deadline.

The coordinator's default client is ``ServiceClient``, and its budget,
connect included, is the only deadline on a replica attempt.  Here the
primary of one slice is a bare listening socket that accepts connections
and never finishes a reply, and the replica is an in-process
``QueryServer`` serving the slice, so the real client's deadline, not a
scripted fake, must end the stalled attempt.  The primary stalls three
ways: it never sends a byte; it sends half a reply line, then nothing;
it sends a reply line one byte at a time and never ends it, so no single
read ever waits long.
"""

import socket
import threading
import time
from contextlib import closing

import pytest

from repro.cluster import ClusterCoordinator, ShardMap
from repro.cluster.bootstrap import shard_documents
from repro.core import GraphCollection
from repro.datasets.molecules import molecule_collection
from repro.runtime import Outcome
from repro.service import QueryServer, QueryService, ServiceClient, \
    ServiceConfig

QUERY = 'graph P { node a <label="C">; }'
#: the fan-out's global deadline: the stalled primary gets half of it
DEADLINE = 2.0
#: each slice's preference list is both shards, its own first
SHARD_MAP = ShardMap(["shard0", "shard1"], replication_factor=2)
#: seconds between the bytes of a trickled reply
TRICKLE_EVERY = 0.05
#: seconds before the half reply line is sent: each read then waits
#: less than the budget, the whole reply longer
HALF_LINE_AFTER = 0.4
#: seconds a stall lasts at most before the primary hangs up, so a
#: client that does not end the call fails the bounds below, not hangs
STALL_AT_MOST = DEADLINE + 2.0


def _stall(connection: socket.socket, how: str,
           stop: threading.Event) -> None:
    """Read the request, then answer it *how* until *stop* is set or
    :data:`STALL_AT_MOST` has passed; then hang up."""
    give_up = time.monotonic() + STALL_AT_MOST
    connection.settimeout(TRICKLE_EVERY)
    try:
        if how != "silent":
            while not stop.is_set() and b"\n" not in _recv(connection):
                pass
        if how == "half_line":
            stop.wait(HALF_LINE_AFTER)
            connection.sendall(b'{"ok": true, "id": "fanout-')
        elif how == "trickle":
            connection.sendall(b'{"ok": true, "pad": "')
            while (time.monotonic() < give_up
                   and not stop.wait(TRICKLE_EVERY)):
                connection.sendall(b"x")
        stop.wait(max(0.0, give_up - time.monotonic()))
        connection.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # the client hung up


def _recv(connection: socket.socket) -> bytes:
    try:
        return connection.recv(65536)
    except socket.timeout:
        return b""


@pytest.fixture(params=["silent", "half_line", "trickle"])
def stalling_endpoint(request):
    """``(host, port)`` of a socket that accepts and never ends a reply."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    stop = threading.Event()
    held = []
    stallers = []

    def accept():
        while not stop.is_set():
            try:
                connection = listener.accept()[0]
            except socket.timeout:
                continue
            held.append(connection)
            staller = threading.Thread(
                target=_stall, args=(connection, request.param, stop),
                name="stalling-primary", daemon=True)
            staller.start()
            stallers.append(staller)

    thread = threading.Thread(target=accept, name="stalling-primary",
                              daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[:2]
    finally:
        stop.set()
        thread.join(timeout=5)
        for staller in stallers:
            staller.join(timeout=5)
        listener.close()
        for connection in held:
            connection.close()


def test_client_budget_ends_a_stalled_reply(stalling_endpoint):
    client = ServiceClient(*stalling_endpoint, timeout=0.5)
    started = time.monotonic()
    with closing(client), pytest.raises(socket.timeout):
        client.query(QUERY)
    assert time.monotonic() - started < 0.5 + 0.3


@pytest.fixture
def replica_server():
    """A ``QueryServer`` holding what ``shard1``'s store would hold."""
    service = QueryService(ServiceConfig(workers=2))
    documents = shard_documents(
        SHARD_MAP, molecule_collection(num_molecules=8, seed=5), "data")
    for name, graphs in documents["shard1"].items():
        service.register(name, GraphCollection(graphs, name=name))
    server = QueryServer(service, ("127.0.0.1", 0))
    thread = threading.Thread(target=server.serve_until_shutdown,
                              daemon=True)
    thread.start()
    try:
        yield server.address
    finally:
        server.shutdown_gracefully(drain_timeout=2.0)
        thread.join(timeout=10)


def test_stalled_primary_fails_over_to_a_real_replica_within_the_deadline(
        stalling_endpoint, replica_server):
    coordinator = ClusterCoordinator(
        SHARD_MAP, {"shard0": stalling_endpoint, "shard1": replica_server},
        timeout=DEADLINE)
    started = time.monotonic()
    reply = coordinator.query(QUERY)
    elapsed = time.monotonic() - started

    assert elapsed < DEADLINE + 0.5
    # shard0's slice: the primary's attempt ran out, the replica served it
    entry = reply.outcome.detail["shards"]["shard0"]
    assert entry["merged"] is True
    assert entry["replica_used"] == "shard1" and entry["failovers"] == 1
    assert coordinator.stats()["counters"]["failovers"] == 1
    # shard1's slice is served by its own primary
    assert reply.outcome.status is Outcome.COMPLETE
    assert reply.submitted == 2 == reply.merged
    assert not [thread.name for thread in threading.enumerate()
                if thread.name.startswith("fanout")]
