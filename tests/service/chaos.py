"""Network chaos harness: a fault-injecting TCP proxy plus a soak run.

``ChaosProxy`` sits between a :class:`~repro.service.client.ServiceClient`
and a :class:`~repro.service.server.QueryServer` and injects transport
faults the way :class:`repro.storage.faults.FaultyLog` injects disk
faults: every decision comes from a ``random.Random`` seeded from
``(seed, connection index, direction)``, so a failing run is replayable
by seed.  Fault kinds, each with its own rate:

* ``reset``     — drop the connection mid-stream (both directions die),
* ``corrupt``   — flip one byte of a chunk (bad JSON / frame desync),
* ``duplicate`` — send a chunk twice (stale-response desync),
* ``delay``     — hold a chunk for a few milliseconds,
* ``split``     — deliver a chunk in two separate writes.

Run as a script it becomes the CI ``chaos-soak`` scenario::

    PYTHONPATH=src python tests/service/chaos.py --seed 1

It starts a real server in-process, drives concurrent retrying clients
through the proxy, and asserts the resilience contract: every request
terminates with a structured outcome or a typed client error — never a
hang — and afterwards a clean (non-proxied) connection still gets
answers, ``/ready`` says yes, and the server's accounting satisfies
``submitted == admitted + rejected + shed``.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import random
import socket
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

#: fault rates used when the caller does not override them
DEFAULT_RATES = {
    "reset": 0.02,
    "corrupt": 0.02,
    "duplicate": 0.03,
    "delay": 0.15,
    "split": 0.20,
}


class ChaosProxy:
    """A seeded fault-injecting TCP interposer.

    Accepts on an ephemeral port, opens one upstream connection per
    client connection, and pumps bytes both ways through the fault
    schedule.  ``stats`` counts injected faults by kind.
    """

    def __init__(self, upstream: Tuple[str, int], seed: int = 1,
                 host: str = "127.0.0.1",
                 rates: Optional[Dict[str, float]] = None) -> None:
        self.upstream = upstream
        self.seed = seed
        self.rates = dict(DEFAULT_RATES)
        if rates:
            self.rates.update(rates)
        self.stats: collections.Counter = collections.Counter()
        self._stats_lock = threading.Lock()
        self._conn_ids = itertools.count(1)
        self._closing = threading.Event()
        self._sockets: list = []
        self._threads: list = []
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, 0))
        self._listener.listen(64)
        self._accept_thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._listener.getsockname()[:2]

    def start(self) -> "ChaosProxy":
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-accept", daemon=True)
        self._accept_thread.start()
        return self

    def close(self) -> None:
        self._closing.set()
        try:
            self._listener.close()
        except OSError:
            pass
        for sock in list(self._sockets):
            _quiet_close(sock)
        for thread in self._threads:
            thread.join(timeout=2.0)

    def _count(self, kind: str) -> None:
        with self._stats_lock:
            self.stats[kind] += 1

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                client, _ = self._listener.accept()
            except OSError:
                break
            conn_id = next(self._conn_ids)
            try:
                server = socket.create_connection(self.upstream, timeout=5)
            except OSError:
                _quiet_close(client)
                continue
            self._sockets.extend((client, server))
            self._count("connections")
            for direction, src, dst in (("c2s", client, server),
                                        ("s2c", server, client)):
                pump = threading.Thread(
                    target=self._pump, name=f"chaos-{conn_id}-{direction}",
                    args=(conn_id, direction, src, dst), daemon=True)
                pump.start()
                self._threads.append(pump)

    def _pump(self, conn_id: int, direction: str,
              src: socket.socket, dst: socket.socket) -> None:
        # the fault schedule is a pure function of (seed, conn, direction)
        rng = random.Random(f"{self.seed}:{conn_id}:{direction}")
        try:
            while True:
                data = src.recv(65536)
                if not data:
                    break
                if not self._transmit(rng, data, dst):
                    break
        except OSError:
            pass
        finally:
            # a dead pump kills the whole pair: half-open connections
            # would otherwise leave the peer blocked on a read forever
            _quiet_close(src)
            _quiet_close(dst)

    def _transmit(self, rng: random.Random, data: bytes,
                  dst: socket.socket) -> bool:
        """Forward one chunk through the fault schedule.

        Returns False to reset the connection instead.
        """
        roll = rng.random()
        rates = self.rates
        edge = rates["reset"]
        if roll < edge:
            self._count("reset")
            return False
        edge += rates["corrupt"]
        if roll < edge:
            self._count("corrupt")
            index = rng.randrange(len(data))
            data = data[:index] + bytes([data[index] ^ 0x01]) + data[index + 1:]
            dst.sendall(data)
            return True
        edge += rates["duplicate"]
        if roll < edge:
            self._count("duplicate")
            dst.sendall(data)
            dst.sendall(data)
            return True
        edge += rates["delay"]
        if roll < edge:
            self._count("delay")
            time.sleep(rng.uniform(0.002, 0.03))
            dst.sendall(data)
            return True
        edge += rates["split"]
        if roll < edge and len(data) > 1:
            self._count("split")
            cut = rng.randrange(1, len(data))
            dst.sendall(data[:cut])
            time.sleep(rng.uniform(0.0, 0.005))
            dst.sendall(data[cut:])
            return True
        self._count("pass")
        dst.sendall(data)
        return True


def _quiet_close(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


# ---------------------------------------------------------------------------
# the soak scenario


CLIENTS = 6
QUERIES_PER_CLIENT = 20
JOIN_TIMEOUT = 240.0

FAST_QUERY = ('graph P { node u1 <label="L001">; node u2 <label="L002">; '
              'edge e1 (u1, u2); }')
PATH_QUERY = ('graph P { node u1 <label="L001">; node u2 <label="L002">; '
              'node u3 <label="L003">; edge e1 (u1, u2); '
              'edge e2 (u2, u3); }')

#: statuses a request is allowed to end with; anything else (or a hang)
#: fails the soak
STRUCTURED = {"COMPLETE", "TRUNCATED", "TIMED_OUT", "CANCELLED",
              "REJECTED", "SHED"}


def build_service():
    from repro.datasets.random_graphs import erdos_renyi_graph
    from repro.service import QueryService, ServiceConfig
    from repro.service import service as service_module

    # the drill runs in a process of its own: a tighter breaker than the
    # defaults (8 failures, 5 s) trips and recovers within the soak
    service_module.BREAKER_THRESHOLD = 6
    service_module.BREAKER_COOLDOWN = 0.5
    config = ServiceConfig(
        workers=3, queue_depth=8, per_client=8,
        default_timeout=5.0, default_max_results=500,
    )
    service = QueryService(config)
    service.register("data", erdos_renyi_graph(
        200, 600, num_labels=6, seed=7, name="data"))
    return service


def client_worker(index: int, seed: int, address: Tuple[str, int],
                  record: list, errors: list) -> None:
    from repro.service.client import ServiceClient
    from repro.service.protocol import ProtocolError

    host, port = address
    rng = random.Random(f"soak:{seed}:{index}")
    client = ServiceClient(
        host, port, timeout=3.0, connect_timeout=1.0,
        client_name=f"chaos{index}", retries=3,
        backoff_base=0.01, backoff_max=0.1, retry_seed=seed * 100 + index)
    try:
        for q in range(QUERIES_PER_CLIENT):
            query = PATH_QUERY if q % 4 == 3 else FAST_QUERY
            timeout = 0.05 if q % 5 == 4 else None  # some unmeetable
            started = time.monotonic()
            try:
                reply = client.query(
                    query, timeout=timeout, limit=50,
                    no_cache=(rng.random() < 0.3))
            except (ConnectionError, ProtocolError, OSError) as exc:
                # a typed client error is a structured termination too:
                # the caller knows the call failed and can re-issue it
                record.append({"client": index, "q": q,
                               "status": f"client_error:{type(exc).__name__}",
                               "elapsed": time.monotonic() - started})
                continue
            elapsed = time.monotonic() - started
            status = reply.outcome.status.value
            if reply.ok and status not in STRUCTURED:
                errors.append(f"c{index}/q{q}: unstructured status "
                              f"{status!r}")
            if not reply.ok and not reply.error:
                errors.append(f"c{index}/q{q}: not ok but no error text")
            record.append({"client": index, "q": q,
                           "status": status if reply.ok
                           else "server_error",
                           "elapsed": elapsed})
    finally:
        client.close()


def soak(seed: int) -> Dict[str, object]:
    """One soak run; returns the report dict (raises AssertionError on
    a broken invariant)."""
    from repro.service import QueryServer
    from repro.service.client import ServiceClient

    service = build_service()
    server = QueryServer(service, ("127.0.0.1", 0))
    serve_thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.1},
        name="chaos-server", daemon=True)
    serve_thread.start()
    proxy = ChaosProxy(server.address, seed=seed).start()
    records: list = []
    errors: list = []
    threads = [
        threading.Thread(target=client_worker, name=f"chaos-client-{i}",
                         args=(i, seed, proxy.address, records, errors),
                         daemon=True)
        for i in range(CLIENTS)
    ]
    started = time.monotonic()
    for t in threads:
        t.start()
    hung = []
    deadline = started + JOIN_TIMEOUT
    for t in threads:
        t.join(max(0.0, deadline - time.monotonic()))
        if t.is_alive():
            hung.append(t.name)
    assert not hung, f"hung client threads: {hung}"

    expected = CLIENTS * QUERIES_PER_CLIENT
    assert len(records) == expected, (
        f"lost requests: {len(records)}/{expected} accounted for")
    assert not errors, "; ".join(errors[:5])

    # after the storm: a clean connection must work immediately
    host, port = server.address
    with ServiceClient(host, port, timeout=10.0,
                       client_name="after") as clean:
        reply = clean.query(FAST_QUERY, limit=10)
        assert reply.ok, f"post-soak query failed: {reply.error}"
        ready, reason = clean.ready()
        assert ready, f"post-soak server not ready: {reason}"
        health = clean.health()
        assert health["status"] == "ok", health
        stats = clean.stats()
    accounted = (stats["admitted"] + stats["rejected"]
                 + stats["shed"]["total"])
    assert stats["submitted"] == accounted, (
        f"accounting broken: submitted={stats['submitted']} "
        f"admitted={stats['admitted']} rejected={stats['rejected']} "
        f"shed={stats['shed']['total']}")

    proxy.close()
    server.shutdown_gracefully(drain_timeout=5.0)
    serve_thread.join(timeout=10)

    by_status = collections.Counter(r["status"] for r in records)
    return {
        "seed": seed,
        "elapsed": round(time.monotonic() - started, 3),
        "requests": len(records),
        "statuses": dict(by_status),
        "faults": dict(proxy.stats),
        "server": {
            "submitted": stats["submitted"],
            "admitted": stats["admitted"],
            "rejected": stats["rejected"],
            "shed": stats["shed"],
            "timed_out": stats["outcomes"]["TIMED_OUT"],
            "client_retries": stats["client_retries"],
            "breaker_states": stats["resilience"]["breaker_states"],
        },
        "records": records,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1,
                        help="fault-schedule seed (replayable)")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write the JSON soak report here")
    args = parser.parse_args(argv)
    try:
        report = soak(args.seed)
    except AssertionError as exc:
        print(f"FAIL (seed {args.seed}): {exc}", flush=True)
        return 1
    summary = {k: v for k, v in report.items() if k != "records"}
    print(json.dumps(summary, indent=2), flush=True)
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2))
        print(f"report written to {args.report}", flush=True)
    print(f"chaos soak ok: seed={args.seed} "
          f"requests={report['requests']} "
          f"statuses={report['statuses']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
