"""Boot a local cluster: replicate slices, launch one server per shard.

:func:`launch_cluster` partitions a :class:`~repro.core.GraphCollection`
with a :class:`~repro.cluster.shardmap.ShardMap`, writes every slice to
the **durable store** (one log file, see ``docs/robustness.md``) of each
shard in its preference list, and launches one ``repro-gql serve
--store ... --port 0`` subprocess per shard.  Each child announces its
OS-assigned port on a machine-readable ``ready {...}`` stdout line (see
:func:`wait_ready`), so no port numbers are configured — or fought
over — anywhere.

With ``replication_factor=R >= 2`` every slice lives on R processes
(each owner serves it under the shared ``document@primary`` name), a
replica-aware coordinator fails over instead of reporting ``PARTIAL``,
and an optional :class:`~repro.cluster.supervisor.ShardSupervisor`
(``supervise=True``) restarts dead shards from their stores.

The returned :class:`LocalCluster` is the test/ops handle: it builds
coordinators wired to the live endpoints (updated in place on
supervised restarts), SIGKILLs individual shards (the failover drills
in ``tests/integration/test_cluster_soak.py``), and tears everything
down.
"""

from __future__ import annotations

import json
import queue
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..core import GraphCollection
from .coordinator import ClusterCoordinator
from .shardmap import ShardMap, slice_document

#: stdout/stderr lines kept per child for failure diagnostics
TAIL_LINES = 20

#: seconds a launched or respawned shard has to print its ready line
READY_TIMEOUT = 30.0

#: the document every launched cluster serves (sliced per shard)
DOCUMENT = "data"

#: the fsync policy of every shard store
FSYNC = "commit"


def wait_ready(process: subprocess.Popen,
               timeout: float = 20.0,
               tail: Optional[Deque[str]] = None) -> Dict[str, Any]:
    """Block until a serve child prints its ``ready {...}`` line.

    Returns the parsed payload (``host``, ``port``, ``documents``…).
    A drain thread keeps consuming the child's stdout afterwards so its
    later prints (shutdown summary, slow-query log) never fill the pipe
    and block the server; everything drained lands in *tail* (a bounded
    deque, created here when not supplied), and on timeout or child
    exit the raised error carries the last ~{TAIL_LINES} captured lines
    so a CI failure is diagnosable from the report artifact alone.
    """
    if tail is None:
        tail = deque(maxlen=TAIL_LINES)
    lines: "queue.Queue[Optional[str]]" = queue.Queue()

    def pump() -> None:
        try:
            for line in process.stdout:  # type: ignore[union-attr]
                tail.append(line.rstrip("\n"))
                lines.put(line)
        finally:
            lines.put(None)

    threading.Thread(target=pump, name="shard-stdout-pump",
                     daemon=True).start()
    deadline = time.monotonic() + timeout

    def tail_text() -> str:
        captured = list(tail)
        if not captured:
            return "  <no output captured>"
        return "\n".join(f"  | {line}" for line in captured)

    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(
                f"no ready line after {timeout:g}s; last "
                f"{len(tail)} line(s) of child output:\n{tail_text()}")
        try:
            line = lines.get(timeout=remaining)
        except queue.Empty:
            continue
        if line is None:
            try:  # stdout EOF: the child is exiting — reap its rc
                rc = process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                rc = process.poll()
            raise RuntimeError(
                f"server exited (rc={rc}) before its ready "
                f"line; last {len(tail)} line(s) of child output:\n"
                f"{tail_text()}")
        if line.startswith("ready "):
            return json.loads(line[len("ready "):])


@dataclass
class ShardProcess:
    """One running shard: its subprocess, endpoint and respawn recipe."""

    shard_id: str
    process: subprocess.Popen
    host: str
    port: int
    data_path: Path
    graph_ids: List[str] = field(default_factory=list)
    #: the exact command + env + cwd that booted it — what a supervisor
    #: replays to restart the shard from its durable store
    command: List[str] = field(default_factory=list)
    env: Optional[Dict[str, str]] = None
    cwd: Optional[str] = None
    restarts: int = 0
    #: last ~20 lines of child output (shared with :func:`wait_ready`)
    output_tail: Deque[str] = field(
        default_factory=lambda: deque(maxlen=TAIL_LINES))

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    def kill(self) -> None:
        """SIGKILL — the failure drill (no drain, no goodbye)."""
        if self.alive:
            self.process.kill()
        self.process.wait()

    def terminate(self, timeout: float = 10.0) -> None:
        """SIGTERM and wait for the graceful drain to finish."""
        if self.alive:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()

    def respawn(self) -> Dict[str, Any]:
        """Relaunch the shard from its durable store.

        The old process must already be dead.  On success the
        process/endpoint fields are replaced (the port is fresh — the
        OS assigns it) and ``restarts`` is bumped; on failure the
        half-started child is killed and the error (carrying the output
        tail) propagates.
        """
        if self.alive:
            raise RuntimeError(f"{self.shard_id} is still running")
        process = subprocess.Popen(
            self.command, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
            env=self.env, cwd=self.cwd)
        try:
            payload = wait_ready(process, timeout=READY_TIMEOUT,
                                 tail=self.output_tail)
        except BaseException:
            process.kill()
            process.wait()
            raise
        self.process = process
        self.host = str(payload["host"])
        self.port = int(payload["port"])
        self.restarts += 1
        return payload


class LocalCluster:
    """A handle on N locally-launched shard servers plus their map."""

    def __init__(self, shard_map: ShardMap,
                 shards: Dict[str, ShardProcess],
                 document: str, workdir: Path,
                 _tmp: Optional[tempfile.TemporaryDirectory] = None,
                 assignment: Optional[Dict[str, List[str]]] = None) -> None:
        self.shard_map = shard_map
        self.shards = shards
        self.document = document
        self.workdir = workdir
        self._tmp = _tmp
        #: primary placement: shard id -> the graph ids of ITS slice
        #: (replicas it hosts for neighbours are not listed here)
        self.assignment: Dict[str, List[str]] = dict(assignment or {})
        #: the LIVE endpoint table: coordinators hold it by reference,
        #: and a supervised restart updates it in place
        self._endpoints: Dict[str, Tuple[str, int]] = {
            sid: (sp.host, sp.port) for sid, sp in shards.items()}
        #: attached by :func:`launch_cluster` when ``supervise=True``
        self.supervisor = None

    @property
    def endpoints(self) -> Dict[str, Tuple[str, int]]:
        """The live shard endpoint table (mutated on restarts)."""
        return self._endpoints

    def note_restart(self, shard_id: str) -> None:
        """Publish a respawned shard's fresh endpoint to coordinators."""
        shard = self.shards[shard_id]
        self._endpoints[shard_id] = (shard.host, shard.port)

    def coordinator(self, **kwargs) -> ClusterCoordinator:
        """A coordinator wired to this cluster's live endpoints."""
        return ClusterCoordinator(self.shard_map, self._endpoints,
                                  **kwargs)

    def kill(self, shard_id: str) -> None:
        """SIGKILL one shard (it stays in the map: the coordinator must
        discover and absorb — or report — the failure, not have it
        hidden)."""
        self.shards[shard_id].kill()

    def alive(self) -> List[str]:
        """Shard ids whose process is still running."""
        return [sid for sid, sp in self.shards.items() if sp.alive]

    def state(self) -> Dict[str, Any]:
        """A JSON-ready snapshot for tooling (``cluster status``)."""
        return {
            "document": self.document,
            "map": self.shard_map.to_dict(),
            "shards": {
                sid: {
                    "host": sp.host, "port": sp.port,
                    "pid": sp.process.pid, "alive": sp.alive,
                    "restarts": sp.restarts,
                }
                for sid, sp in self.shards.items()
            },
            "supervisor": (self.supervisor.stats()
                           if self.supervisor is not None else None),
        }

    def write_state(self, path: Path) -> None:
        """Atomically persist :meth:`state` (the status file)."""
        path = Path(path)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(self.state(), indent=2, sort_keys=True),
                       encoding="utf-8")
        tmp.replace(path)

    def shutdown(self) -> None:
        """Stop supervision, drain every surviving shard, clean up."""
        if self.supervisor is not None:
            self.supervisor.stop()
        for shard in self.shards.values():
            shard.terminate()
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def _server_command(store_path: Path, workers: int,
                    timeout: float) -> List[str]:
    return [sys.executable, "-m", "repro", "serve",
            "--store", str(store_path), "--fsync", FSYNC,
            "--port", "0", "--host", "127.0.0.1",
            "--workers", str(workers), "--timeout", str(timeout)]


def _write_store(store_path: Path, documents: Dict[str, List[Any]]) -> None:
    """Write one shard's documents to its durable store."""
    from ..storage.database import GraphDatabase

    database = GraphDatabase()
    database.attach_durable(store_path, fsync=FSYNC)
    try:
        for name, graphs in documents.items():
            database.register_durable(
                name, GraphCollection(list(graphs), name=name))
    finally:
        database.close_store()


def shard_documents(shard_map: ShardMap, collection: GraphCollection,
                    document: str) -> Dict[str, Dict[str, List[Any]]]:
    """What each shard's store holds: document name -> member graphs.

    Every slice whose preference list names a shard lands in that
    shard's store, the primary's own slice included, under
    ``document@primary`` (:func:`slice_document`) when R >= 2 and under
    *document* itself when R = 1.
    """
    by_name = {graph.name: graph for graph in collection}
    if len(by_name) != len(collection):
        raise ValueError("collection has duplicate graph names; "
                         "placement needs unique graph ids")
    replicated = shard_map.replication_factor > 1
    stores: Dict[str, Dict[str, List[Any]]] = {
        shard: {} for shard in shard_map.shards}
    for primary, names in shard_map.split(by_name).items():
        doc = slice_document(document, primary) if replicated else document
        for replica in shard_map.preference_list(primary):
            stores[replica][doc] = [by_name[name] for name in names]
    return stores


def launch_cluster(
    collection: GraphCollection,
    num_shards: int = 3,
    *,
    replication_factor: int = 1,
    workers: int = 2,
    query_timeout: float = 10.0,
    supervise: bool = False,
) -> LocalCluster:
    """Split *collection* over *num_shards* local servers and boot them.

    Placement is by the member graphs' names through a fresh
    :class:`ShardMap`.  Every shard's slice is written to the durable
    store of each shard in its preference list (``replication_factor``
    of them), in a fresh temporary directory the cluster removes on
    shutdown; with R >= 2 each owner serves the slice under the shared
    ``data@primary`` name so a coordinator can fail over without
    losing answers.  ``supervise=True`` attaches a
    :class:`~repro.cluster.supervisor.ShardSupervisor` that restarts
    dead shards from their stores.  Raises if any child fails to report
    ready — already started shards are torn down again, so a failed
    boot leaks nothing.
    """
    shard_ids = [f"shard{i}" for i in range(num_shards)]
    shard_map = ShardMap(shard_ids, replication_factor)
    stores = shard_documents(shard_map, collection, DOCUMENT)
    tmp = tempfile.TemporaryDirectory(prefix="repro-cluster-")
    workdir = Path(tmp.name)
    env = _child_env()
    shards: Dict[str, ShardProcess] = {}
    try:
        for shard_id in shard_ids:
            store_path = workdir / f"{shard_id}.store"
            documents = stores[shard_id]
            _write_store(store_path, documents)
            command = _server_command(store_path, workers, query_timeout)
            process = subprocess.Popen(
                command, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True, env=env,
                cwd=str(workdir))
            shard = ShardProcess(
                shard_id=shard_id, process=process,
                host="", port=0, data_path=store_path,
                graph_ids=[graph.name for graphs in documents.values()
                           for graph in graphs],
                command=command, env=env,
                cwd=str(workdir))
            shards[shard_id] = shard
            payload = wait_ready(process, timeout=READY_TIMEOUT,
                                 tail=shard.output_tail)
            shard.host = str(payload["host"])
            shard.port = int(payload["port"])
    except BaseException:
        for shard in shards.values():
            shard.kill()
        tmp.cleanup()
        raise
    cluster = LocalCluster(
        shard_map, shards, DOCUMENT, workdir, _tmp=tmp,
        assignment=shard_map.split(graph.name for graph in collection))
    if supervise:
        from .supervisor import ShardSupervisor

        cluster.supervisor = ShardSupervisor(cluster)
        cluster.supervisor.start()
    return cluster


def _child_env() -> Dict[str, str]:
    """The child's environment, with ``repro`` importable."""
    import os

    import repro

    env = dict(os.environ)
    src_root = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (src_root if not existing
                         else src_root + os.pathsep + existing)
    return env
