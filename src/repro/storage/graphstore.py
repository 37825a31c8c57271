"""Graph persistence as logical records in the store's log.

Every save is one transaction, and every transaction is one frame of the
log file (:mod:`repro.storage.wal`).  A frame's payload is a run of
binary records, each opened by a one-byte kind:

* a **graph header** (name, directedness, attributes and the saved
  :attr:`Graph.version`), followed by the graph's **node** records, then
  its **edge** records;
* a **document marker**, which opens a full snapshot of a named
  document: every member graph follows it;
* a **member marker**, which says the graph after it replaces one
  member of a stored document.

Strings and counts carry u32 lengths, so any value a :class:`Graph`
holds round-trips; anything that still cannot be encoded raises
:class:`StorageError` before a byte is written.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..core.collection import GraphCollection
from ..core.graph import Graph, Node
from ..core.tuples import AttributeTuple
from .wal import RecoveryResult, StorageError, WriteAheadLog

_TYPE_INT = 0
_TYPE_FLOAT = 1
_TYPE_STR = 2
_TYPE_BOOL = 3

_REC_GRAPH = 0
_REC_NODE = 1
_REC_EDGE = 2
_REC_DOC = 3
_REC_MEMBER = 4

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_INT_RANGE = range(-2 ** 63, 2 ** 63)
_MAX_LENGTH = 0xFFFFFFFF


def _encode_length(length: int) -> bytes:
    if length > _MAX_LENGTH:
        raise StorageError(
            f"length {length} exceeds the u32 limit of the record format")
    return _U32.pack(length)


def _encode_str(text: Optional[str]) -> bytes:
    try:
        raw = (text or "").encode("utf-8")
    except UnicodeEncodeError as exc:
        raise StorageError(f"cannot encode string {text!r}: {exc}") from None
    return _encode_length(len(raw)) + raw


def _encode_value(value: Any) -> bytes:
    if isinstance(value, bool):
        return bytes((_TYPE_BOOL, int(value)))
    if isinstance(value, int):
        if value not in _INT_RANGE:
            raise StorageError(
                f"integer {value} does not fit the 64-bit record format")
        return bytes((_TYPE_INT,)) + _I64.pack(value)
    if isinstance(value, float):
        return bytes((_TYPE_FLOAT,)) + _F64.pack(value)
    if isinstance(value, str):
        return bytes((_TYPE_STR,)) + _encode_str(value)
    raise StorageError(f"cannot encode value of type {type(value).__name__}")


def _encode_tuple(attrs: AttributeTuple) -> bytes:
    parts = [_encode_str(attrs.tag), _encode_length(len(attrs))]
    for name, value in attrs.items():
        parts.append(_encode_str(name))
        parts.append(_encode_value(value))
    return b"".join(parts)


def _graph_records(graph: Graph) -> Iterator[bytes]:
    """A graph's header, node and edge records.

    The header persists :attr:`Graph.version` at save time, so a reload
    (crash recovery included) restores the mutation counter the running
    system handed out for this saved state: service caches keyed on the
    version can never alias across a restart.
    """
    yield (bytes((_REC_GRAPH,)) + _encode_str(graph.name)
           + bytes((int(graph.directed),)) + _encode_tuple(graph.tuple)
           + _U64.pack(graph.version))
    for node in graph.nodes():
        yield bytes((_REC_NODE,)) + _encode_str(node.id) + _encode_tuple(
            node.tuple)
    for edge in graph.edges():
        yield (bytes((_REC_EDGE,)) + _encode_str(edge.id)
               + _encode_str(edge.source) + _encode_str(edge.target)
               + _encode_tuple(edge.tuple))


def _document_records(name: str, graphs: Iterable[Graph]) -> Iterator[bytes]:
    """A full snapshot of a document: its marker, then every member.

    Re-registering a document appends a fresh snapshot, and
    :meth:`GraphStore.load_documents` keeps the last one per name.
    """
    yield bytes((_REC_DOC,)) + _encode_str(name)
    for graph in graphs:
        yield from _graph_records(graph)


def _member_records(name: str, position: int,
                    graph: Graph) -> Iterator[bytes]:
    """The new member at *position* of document *name*: a member
    marker, then the graph."""
    yield bytes((_REC_MEMBER,)) + _encode_str(name) + _U32.pack(position)
    yield from _graph_records(graph)


_unpack_u32 = _U32.unpack_from


def _decode_text(buf: bytes, offset: int) -> Tuple[str, int]:
    (length,) = _unpack_u32(buf, offset)
    offset += 4
    return buf[offset:offset + length].decode("utf-8"), offset + length


def _decode_attrs(buf: bytes, offset: int) -> Tuple[AttributeTuple, int]:
    """One attribute tuple (the hot loop of every load, kept inline)."""
    (length,) = _unpack_u32(buf, offset)
    offset += 4
    tag = buf[offset:offset + length].decode("utf-8") or None
    offset += length
    (count,) = _unpack_u32(buf, offset)
    offset += 4
    attrs = {}
    for _ in range(count):
        (length,) = _unpack_u32(buf, offset)
        offset += 4
        name = buf[offset:offset + length].decode("utf-8")
        offset += length
        kind = buf[offset]
        if kind == _TYPE_STR:
            (length,) = _unpack_u32(buf, offset + 1)
            offset += 5
            value: Any = buf[offset:offset + length].decode("utf-8")
            offset += length
        elif kind == _TYPE_INT:
            (value,) = _I64.unpack_from(buf, offset + 1)
            offset += 9
        elif kind == _TYPE_FLOAT:
            (value,) = _F64.unpack_from(buf, offset + 1)
            offset += 9
        elif kind == _TYPE_BOOL:
            value = bool(buf[offset + 1])
            offset += 2
        else:
            raise StorageError(f"unknown value type tag {kind}")
        attrs[name] = value
    return AttributeTuple(attrs, tag=tag), offset


def _decode_frame(payload: bytes) -> Iterator[Tuple[str, Any]]:
    """One frame's records as ``("doc", name)``,
    ``("member", (name, position))`` and ``("graph", graph)`` events (a
    graph once its last record is read, its saved version restored)."""
    graph: Optional[Graph] = None
    version = 0
    offset = 0
    end = len(payload)
    while offset < end:
        kind = payload[offset]
        offset += 1
        if kind == _REC_NODE or kind == _REC_EDGE:
            if graph is None:
                raise StorageError("node or edge record before a graph "
                                   "header")
            if kind == _REC_NODE:
                node_id, offset = _decode_text(payload, offset)
                attrs, offset = _decode_attrs(payload, offset)
                graph.add_node_obj(Node(node_id, attrs))
            else:
                edge_id, offset = _decode_text(payload, offset)
                source, offset = _decode_text(payload, offset)
                target, offset = _decode_text(payload, offset)
                attrs, offset = _decode_attrs(payload, offset)
                graph.add_edge(source, target, edge_id=edge_id).tuple = attrs
            continue
        if graph is not None:
            graph.version = version
            yield ("graph", graph)
            graph = None
        if kind == _REC_GRAPH:
            name, offset = _decode_text(payload, offset)
            directed = bool(payload[offset])
            attrs, offset = _decode_attrs(payload, offset + 1)
            (version,) = _U64.unpack_from(payload, offset)
            offset += 8
            graph = Graph(name or None, attrs, directed=directed)
        elif kind == _REC_DOC:
            name, offset = _decode_text(payload, offset)
            yield ("doc", name)
        elif kind == _REC_MEMBER:
            name, offset = _decode_text(payload, offset)
            (position,) = _unpack_u32(payload, offset)
            offset += 4
            yield ("member", (name, position))
        else:
            raise StorageError(f"unknown record kind {kind}")
    if offset != end:
        raise StorageError("the last record runs past the end of its frame")
    if graph is not None:
        graph.version = version
        yield ("graph", graph)


class GraphStore:
    """Persist and reload named documents in the store's log file.

    Opening runs recovery (:class:`~repro.storage.wal.WriteAheadLog`
    cuts a torn tail), every save is one frame, and :meth:`checkpoint`
    compacts the file to one snapshot of the live documents.  *fsync*
    is ``commit`` or ``never`` (see :mod:`repro.storage.wal`);
    *crashpoint* threads a :class:`~repro.storage.faults.CrashPoint`
    into the log for the crash-fuzz harness.
    """

    def __init__(self, path: str, fsync: str = "commit",
                 crashpoint=None) -> None:
        self.checkpoints = 0
        self.wal = WriteAheadLog(path, fsync=fsync, crashpoint=crashpoint)

    @property
    def recovery(self) -> RecoveryResult:
        """What opening the store found and repaired."""
        return self.wal.recovery

    # -- writing -----------------------------------------------------------------

    def _commit(self, records: Iterable[bytes]) -> None:
        """One transaction: every record lands in one frame, or none
        does (an unencodable value raises before anything is written)."""
        self.wal.commit(b"".join(records))

    def save_document(self, name: str,
                      graphs: Union[GraphCollection, List[Graph]]) -> None:
        """Write a full snapshot of one named document atomically: one
        frame holds the document marker and every member graph."""
        self._commit(_document_records(name, graphs))

    def save_members(self, name: str,
                     members: Iterable[Tuple[int, Graph]]) -> None:
        """Replace some members of a stored document atomically: one
        frame holds a member marker and the graph of each
        ``(position, graph)`` pair.  The document must already have a
        snapshot with those positions."""
        self._commit(record for position, graph in members
                     for record in _member_records(name, position, graph))

    # -- reading ------------------------------------------------------------------

    def events(self) -> Iterator[Tuple[str, Any]]:
        """Every record of the log in order, as ``("doc", name)``,
        ``("member", (name, position))`` and ``("graph", graph)``
        events (graphs complete, versions restored)."""
        for payload in self.wal.frames():
            yield from self._decoded(payload)

    def _decoded(self, payload: bytes) -> Iterator[Tuple[str, Any]]:
        """The events of one committed frame (one transaction)."""
        try:
            yield from _decode_frame(payload)
        except (struct.error, IndexError, KeyError, ValueError) as exc:
            raise StorageError(
                f"{self.wal.path}: undecodable record: {exc}") from None

    def load_documents(self) -> Dict[str, GraphCollection]:
        """Reload named documents: the last snapshot per name, with the
        member records written after it applied in log order.

        A marker reaches no further than its frame, and every graph
        record follows one: a graph with no marker before it in its
        frame is input the store never writes, and raises
        :class:`StorageError`.
        """
        documents: Dict[str, List[Graph]] = {}
        for payload in self.wal.frames():
            current_doc: Optional[str] = None
            replacing: Optional[Tuple[str, int]] = None
            for event, item in self._decoded(payload):
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
                    raise StorageError(
                        f"{self.wal.path}: graph {item.name!r} outside "
                        "any document or member record")
                else:
                    documents[current_doc].append(item)
        return {name: GraphCollection(graphs, name=name)
                for name, graphs in documents.items()}

    # -- compaction ------------------------------------------------------------------

    def checkpoint(self) -> int:
        """Compact the log to one frame holding a snapshot of every live
        document, as read back from the log; returns the bytes freed."""
        documents = self.load_documents()
        payload = b"".join(record for name, graphs in documents.items()
                           for record in _document_records(name, graphs))
        freed = self.wal.compact(payload if documents else None)
        self.checkpoints += 1
        return freed

    def close(self, checkpoint: bool = True) -> None:
        """Close the log, compacting it first by default."""
        if checkpoint:
            self.checkpoint()
        self.wal.close()

    def __enter__(self) -> "GraphStore":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        # no compaction while an exception unwinds
        self.close(checkpoint=exc_type is None)
