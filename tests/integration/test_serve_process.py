"""A real ``repro-gql serve`` process: crash recovery, observability, drain.

Everything else about the service runs in-process (``test_server.py``,
``test_service_soak.py``, ``tests/service``).  What needs the process is
what a process owns: its ``/metrics`` port, a SIGKILL that skips the
checkpoint, a restart from ``--store`` alone, the SIGTERM drain with its
exit code and last words, and the JSONL trace it leaves behind.
"""

import json
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from collections import deque

from repro.cluster.bootstrap import _child_env, wait_ready
from repro.datasets.random_graphs import erdos_renyi_graph
from repro.obs.metrics import parse_prometheus_text
from repro.obs.trace import find_spans, read_trace, span_tree
from repro.runtime import Outcome
from repro.service import ServiceClient
from repro.storage.serializer import save_graph

FAST_QUERY = ('graph P { node u1 <label="L001">; node u2 <label="L002">; '
              'edge e1 (u1, u2); }')
#: a long path over the dense single-label core: combinatorially huge
HEAVY_QUERY = ("graph P { "
               + " ".join(f'node u{i} <label="CORE">;' for i in range(7))
               + " ".join(f' edge e{i} (u{i}, u{i + 1});' for i in range(6))
               + " }")
#: how long the slow log's slowest entry (HEAVY_QUERY under a 0.2 s
#: deadline) ran at least
SLOW_QUERY_FLOOR = 0.05
#: the server's answer cap: far past what HEAVY_QUERY yields before its
#: 0.2 s deadline (about 10^5 answers on a 2-core x86 VM), so the
#: deadline, not the cap, is what stops it
ANSWER_CAP = 100_000_000


def write_data(path) -> None:
    """A synthetic graph plus a 24-node dense single-label core."""
    graph = erdos_renyi_graph(300, 900, num_labels=8, seed=11, name="data")
    core = [f"core{i}" for i in range(24)]
    for node_id in core:
        graph.add_node(node_id, label="CORE")
    for i, a in enumerate(core):
        for b in core[i + 1:]:
            graph.add_edge(a, b)
    save_graph(graph, path)


def serve(*args, output=None):
    """Start ``repro-gql serve`` and return it with its ready payload."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=_child_env())
    try:
        return process, wait_ready(process, tail=output)
    except BaseException:
        process.kill()
        process.wait()
        raise


def rows(reply):
    """An order-insensitive identity for a result-row list."""
    return sorted(json.dumps(row, sort_keys=True) for row in reply.results)


def refuses_connections(host, port, timeout=20.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with socket.create_connection((host, port), timeout=0.3):
                time.sleep(0.05)
        except OSError:
            return True
    return False


def test_durable_server_recovers_observes_and_drains(tmp_path):
    data, trace = tmp_path / "data.gql", tmp_path / "trace.jsonl"
    write_data(data)
    flags = ["--store", str(tmp_path / "state.db"), "--port", "0",
             "--workers", "2", "--timeout", "10", "--limit", str(ANSWER_CAP),
             "--metrics-port", "0", "--trace-out", str(trace)]

    first, ready = serve(str(data), *flags)
    try:
        with ServiceClient(ready["host"], ready["port"]) as client:
            before = client.query(FAST_QUERY, limit=100)
        assert before.outcome.status is Outcome.COMPLETE and before.results
        url = f"http://{ready['host']}:{ready['metrics_port']}/metrics"
        with urllib.request.urlopen(url, timeout=10) as reply:
            scraped = parse_prometheus_text(reply.read().decode("utf-8"))
        assert scraped["repro_service_submitted_total"] >= 1
    finally:
        # a power cut: no drain and no compaction, so the restart must
        # read the load back from the frames the first process committed
        first.kill()
        first.wait(timeout=30)

    output = deque()
    second, ready = serve(*flags, output=output)
    host, port = ready["host"], ready["port"]
    try:
        with ServiceClient(host, port) as client:
            recovery = client.stats()["durability"]["recovery"]
            assert recovery["ran"] and recovery["frames"] > 0
            assert rows(client.query(FAST_QUERY, limit=100)) == rows(before)
            slow = client.query(HEAVY_QUERY, timeout=0.2, no_cache=True)
            assert slow.outcome.status is Outcome.TIMED_OUT
            slowest = client.stats()["slow_queries"][0]
            assert "CORE" in slowest["query"]
            assert slowest["elapsed"] >= SLOW_QUERY_FLOOR
        second.send_signal(signal.SIGTERM)
        assert refuses_connections(host, port)
        assert second.wait(timeout=30) == 0
    finally:
        if second.poll() is None:
            second.kill()
            second.wait()
    # wait_ready's reader thread drains the last lines after the exit
    deadline = time.monotonic() + 5.0
    while not any(line.startswith("slow query:") for line in output):
        assert time.monotonic() < deadline, list(output)
        time.sleep(0.05)
    assert any(line.startswith("shutdown:") for line in output)

    forest = span_tree(read_trace(trace))
    executes = [span for request in find_spans(forest, "service.request")
                for span in request["children"]
                if span["name"] == "service.execute"]
    assert any(find_spans([span], "match.query") for span in executes)
    assert find_spans(forest, "wal.commit")
