"""Graph persistence over slotted pages, with locality clustering.

Builds on :mod:`repro.storage.pager` to answer the Section 7 question of
how to lay graphs out on disk:

* nodes and edges are binary records (a compact tag/attribute encoding);
* a **clustering policy** decides record order: ``"insertion"`` writes
  nodes as declared, ``"bfs"`` writes them in breadth-first order so a
  node and its neighborhood co-locate on pages — the locality heuristic
  the paper suggests for decomposing a large graph into chunks;
* :meth:`GraphStore.neighborhood_page_span` measures the effect: the
  average number of distinct pages a radius-1 neighborhood touches.
"""

from __future__ import annotations

import struct
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..core.collection import GraphCollection
from ..core.graph import Graph
from ..core.tuples import AttributeTuple
from .pager import PageFile, RecordFile, StorageError
from .wal import RecoveryResult, WriteAheadLog

_TYPE_INT = 0
_TYPE_FLOAT = 1
_TYPE_STR = 2
_TYPE_BOOL = 3

_REC_GRAPH = 0
_REC_NODE = 1
_REC_EDGE = 2
_REC_DOC = 3
_REC_MEMBER = 4


def _encode_value(value: Any) -> bytes:
    if isinstance(value, bool):
        return struct.pack("<BB", _TYPE_BOOL, int(value))
    if isinstance(value, int):
        return struct.pack("<Bq", _TYPE_INT, value)
    if isinstance(value, float):
        return struct.pack("<Bd", _TYPE_FLOAT, value)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return struct.pack("<BH", _TYPE_STR, len(raw)) + raw
    raise StorageError(f"cannot encode value of type {type(value).__name__}")


def _decode_value(buf: bytes, offset: int) -> Tuple[Any, int]:
    kind = buf[offset]
    offset += 1
    if kind == _TYPE_BOOL:
        return (bool(buf[offset]), offset + 1)
    if kind == _TYPE_INT:
        (value,) = struct.unpack_from("<q", buf, offset)
        return (value, offset + 8)
    if kind == _TYPE_FLOAT:
        (value,) = struct.unpack_from("<d", buf, offset)
        return (value, offset + 8)
    if kind == _TYPE_STR:
        (length,) = struct.unpack_from("<H", buf, offset)
        offset += 2
        return (buf[offset:offset + length].decode("utf-8"), offset + length)
    raise StorageError(f"unknown value type tag {kind}")


def _encode_str(text: Optional[str]) -> bytes:
    raw = (text or "").encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def _decode_str(buf: bytes, offset: int) -> Tuple[Optional[str], int]:
    (length,) = struct.unpack_from("<H", buf, offset)
    offset += 2
    text = buf[offset:offset + length].decode("utf-8")
    return (text or None, offset + length)


def _encode_tuple(attrs: AttributeTuple) -> bytes:
    parts = [_encode_str(attrs.tag), struct.pack("<H", len(attrs))]
    for name, value in attrs.items():
        parts.append(_encode_str(name))
        parts.append(_encode_value(value))
    return b"".join(parts)


def _decode_tuple(buf: bytes, offset: int) -> Tuple[AttributeTuple, int]:
    tag, offset = _decode_str(buf, offset)
    (count,) = struct.unpack_from("<H", buf, offset)
    offset += 2
    attrs: Dict[str, Any] = {}
    for _ in range(count):
        name, offset = _decode_str(buf, offset)
        value, offset = _decode_value(buf, offset)
        attrs[name or ""] = value
    return (AttributeTuple(attrs, tag=tag), offset)


def encode_node(node_id: str, attrs: AttributeTuple) -> bytes:
    """Binary node record."""
    return bytes([_REC_NODE]) + _encode_str(node_id) + _encode_tuple(attrs)


def encode_edge(edge_id: str, source: str, target: str,
                attrs: AttributeTuple) -> bytes:
    """Binary edge record."""
    return (bytes([_REC_EDGE]) + _encode_str(edge_id) + _encode_str(source)
            + _encode_str(target) + _encode_tuple(attrs))


def encode_graph_header(name: Optional[str], directed: bool,
                        attrs: AttributeTuple, version: int = 0) -> bytes:
    """Binary graph-header record.

    *version* persists :attr:`Graph.version` at save time, so a reload
    (including crash recovery) restores the mutation counter the running
    system handed out for this saved state — service caches keyed on
    the version can never alias across a recovery.  Records written
    before this field existed keep the count the rebuild reaches.
    """
    return (bytes([_REC_GRAPH]) + _encode_str(name)
            + struct.pack("<B", int(directed)) + _encode_tuple(attrs)
            + struct.pack("<Q", version))


def encode_document_marker(name: str) -> bytes:
    """Binary document-boundary record.

    Marks the start of a full snapshot of one named document; the
    snapshot runs until the next marker.  Re-registering a document
    appends a fresh snapshot, and :meth:`GraphStore.load_documents`
    keeps the last one per name (the store is log-structured).

    Between snapshots, a write that changed only some members appends a
    member-replace record per changed member instead
    (:func:`encode_member_marker`, :meth:`GraphStore.save_members`).
    On load, each replaces one member of its document's last snapshot
    in log order, and a later snapshot supersedes every member record
    before it.
    """
    return bytes([_REC_DOC]) + _encode_str(name)


def encode_member_marker(name: str, position: int) -> bytes:
    """Binary member-replace record: the graph records that follow are
    the new member at *position* of document *name*."""
    return (bytes([_REC_MEMBER]) + _encode_str(name)
            + struct.pack("<I", position))


class GraphStore:
    """Persist and reload graphs in a logged page file.

    Opening runs crash recovery (replaying the write-ahead log next to
    the page file), every save is one WAL transaction, and
    :meth:`checkpoint` truncates the log.  *fsync* is the
    durability/throughput trade-off (``always``/``commit``/``never``,
    see :mod:`repro.storage.wal`); *crashpoint* threads a
    :class:`~repro.storage.faults.CrashPoint` into both the page file
    and the log for the crash-fuzz harness.
    """

    def __init__(self, path: str, clustering: str = "bfs",
                 fsync: str = "commit", crashpoint=None) -> None:
        if clustering not in ("bfs", "insertion"):
            raise ValueError(f"unknown clustering policy {clustering!r}")
        self.clustering = clustering
        self.checkpoints = 0
        self.pagefile = PageFile(path, fsync=fsync)
        if crashpoint is not None:
            self.pagefile.crashpoint = crashpoint
            self.pagefile.wal.crashpoint = crashpoint
        self.records = RecordFile(self.pagefile)
        self._node_pages: Dict[str, int] = {}

    @property
    def recovery(self) -> RecoveryResult:
        """What opening the store found and repaired."""
        return self.pagefile.recovery

    @property
    def wal(self) -> WriteAheadLog:
        """The page file's write-ahead log."""
        return self.pagefile.wal

    @property
    def store_version(self) -> int:
        """Committed-transaction counter from the page-file header."""
        return self.pagefile.store_version

    # -- writing -----------------------------------------------------------------

    def node_order(self, graph: Graph) -> List[str]:
        """The record order the clustering policy chooses."""
        if self.clustering == "insertion":
            return graph.node_ids()
        order: List[str] = []
        seen = set()
        for root in graph.node_ids():
            if root in seen:
                continue
            seen.add(root)
            queue = deque([root])
            while queue:
                node_id = queue.popleft()
                order.append(node_id)
                for neighbor in graph.all_neighbors(node_id):
                    if neighbor not in seen:
                        seen.add(neighbor)
                        queue.append(neighbor)
        return order

    def _write_graph(self, graph: Graph) -> None:
        self.records.insert(
            encode_graph_header(graph.name, graph.directed, graph.tuple,
                                version=graph.version)
        )
        for node_id in self.node_order(graph):
            record_id = self.records.insert(
                encode_node(node_id, graph.node(node_id).tuple)
            )
            self._node_pages[node_id] = record_id[0]
        for edge in graph.edges():
            self.records.insert(
                encode_edge(edge.id, edge.source, edge.target, edge.tuple)
            )

    @contextmanager
    def _transaction(self) -> Iterator[None]:
        """One WAL transaction: a crash anywhere inside leaves either the
        previous committed state or everything written in the block."""
        self.pagefile.begin()
        try:
            yield
        except BaseException:
            self.pagefile.abort()
            raise
        self.pagefile.commit()

    def save(self, graph: Graph) -> None:
        """Write one graph (header, nodes in cluster order, edges) as
        one transaction."""
        with self._transaction():
            self._write_graph(graph)

    def save_document(self, name: str,
                      graphs: Union[GraphCollection, List[Graph]]) -> None:
        """Write a full snapshot of one named document atomically: one
        transaction covers the document marker and every member graph."""
        with self._transaction():
            self.records.insert(encode_document_marker(name))
            for graph in graphs:
                self._write_graph(graph)

    def save_members(self, name: str,
                     members: Iterable[Tuple[int, Graph]]) -> None:
        """Replace some members of a stored document atomically: one
        transaction covers a member-replace record and the graph of each
        ``(position, graph)`` pair.  The document must already have a
        snapshot with those positions."""
        with self._transaction():
            for position, graph in members:
                self.records.insert(encode_member_marker(name, position))
                self._write_graph(graph)

    # -- reading ------------------------------------------------------------------

    def _scan_events(self) -> Iterator[Tuple[str, Any]]:
        """Decode the record stream into ``("doc", name)``,
        ``("member", (name, position))`` and ``("graph", graph)`` events
        (edges resolved, versions restored)."""
        current: Optional[Graph] = None
        pending_edges: List[Tuple[str, str, str, AttributeTuple]] = []
        saved_version: Optional[int] = None

        def finish(graph: Optional[Graph]) -> Optional[Graph]:
            if graph is None:
                return None
            for edge_id, source, target, attrs in pending_edges:
                edge = graph.add_edge(source, target, edge_id=edge_id)
                edge.tuple = attrs
            pending_edges.clear()
            # the saved counter comes back exactly, so versions stay
            # monotone across recoveries; a pre-versioning record keeps
            # the rebuild's own count
            if saved_version is not None:
                graph.version = saved_version
            return graph

        for _record_id, raw in self.records.scan():
            kind = raw[0]
            if kind == _REC_DOC:
                done = finish(current)
                current = None
                if done is not None:
                    yield ("graph", done)
                name, _ = _decode_str(raw, 1)
                yield ("doc", name or "")
            elif kind == _REC_MEMBER:
                done = finish(current)
                current = None
                if done is not None:
                    yield ("graph", done)
                name, offset = _decode_str(raw, 1)
                (position,) = struct.unpack_from("<I", raw, offset)
                yield ("member", (name or "", position))
            elif kind == _REC_GRAPH:
                done = finish(current)
                if done is not None:
                    yield ("graph", done)
                name, offset = _decode_str(raw, 1)
                (directed,) = struct.unpack_from("<B", raw, offset)
                offset += 1
                attrs, offset = _decode_tuple(raw, offset)
                saved_version = None
                if offset + 8 <= len(raw):  # pre-versioning records end here
                    (saved_version,) = struct.unpack_from("<Q", raw, offset)
                current = Graph(name, attrs, directed=bool(directed))
            elif kind == _REC_NODE:
                if current is None:
                    raise StorageError("node record before graph header")
                node_id, offset = _decode_str(raw, 1)
                attrs, _ = _decode_tuple(raw, offset)
                node = current.add_node(node_id)
                node.tuple = attrs
            elif kind == _REC_EDGE:
                if current is None:
                    raise StorageError("edge record before graph header")
                edge_id, offset = _decode_str(raw, 1)
                source, offset = _decode_str(raw, offset)
                target, offset = _decode_str(raw, offset)
                attrs, _ = _decode_tuple(raw, offset)
                pending_edges.append((edge_id or "", source or "",
                                      target or "", attrs))
            else:
                raise StorageError(f"unknown record kind {kind}")
        done = finish(current)
        if done is not None:
            yield ("graph", done)

    def load_all(self) -> List[Graph]:
        """Reload every graph stored in the file (markers ignored)."""
        return [item for event, item in self._scan_events()
                if event == "graph"]

    def load_documents(self) -> Dict[str, GraphCollection]:
        """Reload named documents: the last snapshot per name, with the
        member records written after it applied in log order.

        Graphs saved outside any document marker fall back to a document
        named after the graph (anonymous graphs group under ``"data"``).
        """
        documents: Dict[str, List[Graph]] = {}
        current_doc: Optional[str] = None
        replacing: Optional[Tuple[str, int]] = None
        for event, item in self._scan_events():
            if event == "doc":
                current_doc = item
                documents[item] = []
            elif event == "member":
                replacing = item
            elif replacing is not None:
                name, position = replacing
                replacing = None
                members = documents.get(name, [])
                if position >= len(members):
                    raise StorageError(
                        f"member record for {name!r}[{position}] has no "
                        "snapshot member to replace")
                members[position] = item
            elif current_doc is None:
                documents.setdefault(item.name or "data", []).append(item)
            else:
                documents[current_doc].append(item)
        return {name: GraphCollection(graphs, name=name)
                for name, graphs in documents.items()}

    # -- locality measurement ------------------------------------------------------

    def neighborhood_page_span(self, graph: Graph) -> float:
        """Average distinct pages a radius-1 neighborhood touches.

        Lower is better: with BFS clustering, neighbors tend to share
        pages, so traversals fault fewer pages.
        """
        if not self._node_pages:
            raise StorageError("save a graph before measuring locality")
        total = 0
        counted = 0
        for node_id in graph.node_ids():
            pages = {self._node_pages[node_id]}
            for neighbor in graph.all_neighbors(node_id):
                pages.add(self._node_pages[neighbor])
            total += len(pages)
            counted += 1
        return total / counted if counted else 0.0

    def checkpoint(self) -> int:
        """Sync pages, truncate the WAL; returns log bytes freed."""
        freed = self.pagefile.checkpoint()
        self.checkpoints += 1
        return freed

    def close(self, checkpoint: bool = True) -> None:
        """Close the underlying page file and WAL.

        The store checkpoints first by default, so a cleanly closed
        store restarts with an empty log and a no-op recovery.
        """
        if checkpoint and not self.pagefile.in_transaction:
            self.checkpoint()
        self.pagefile.close()

    def __enter__(self) -> "GraphStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
