"""The wire protocol: newline-delimited JSON over TCP.

One request per line, one response line per request, in order.  A
connection is a sequential session; clients that want concurrent queries
open several connections (the server multiplexes them onto the shared
:class:`~repro.service.QueryService` pool, where admission control
applies globally).

Requests (``op`` selects the operation)::

    {"op": "query", "id": "q1", "query": "graph P {...}",
     "document": "data", "client": "alice", "limit": 100,
     "timeout": 1.5, "max_steps": 100000, "max_memory": 1000000,
     "baseline": false, "no_cache": false}
    {"op": "cancel", "id": "c1", "target": "q1"}
    {"op": "stats", "id": "s1", "format": "json"}
    {"op": "explain", "id": "e1", "query": "graph P {...}",
     "document": "data", "analyze": false, "baseline": false}
    {"op": "ping", "id": "p1"}
    {"op": "health", "id": "h1"}
    {"op": "ready", "id": "r1"}

``query`` additionally accepts ``"attempt"`` (1-based retry counter, for
the server's retried-arrival metric) and a remote trace context — ``"trace"``/``"parent"`` integer span ids — under which
the server roots its request span, so a multi-process fan-out (see
:mod:`repro.cluster`) reconstructs offline as one trace tree; ``health``
returns a liveness report and ``ready`` a boolean plus reason and the
server's bound ``host``/``port`` — the same documents the ``/health``
and ``/ready`` HTTP routes serve.

``stats`` accepts ``"format": "prometheus"`` to receive the text
exposition as ``{"stats_text": "..."}`` instead of the JSON snapshot;
``explain`` responds with ``{"explain": {...}}`` — the same document
``repro-gql explain --json`` prints.

Responses always echo ``id`` and carry ``ok``::

    {"id": "q1", "ok": true, "op": "query", "blocks": [...],
     "outcome": {"status": "COMPLETE", ...}, "cache": "miss",
     "versions": {"data": 42}, ...}
    {"id": "c1", "ok": true, "op": "cancel", "cancelled": true}
    {"id": "x", "ok": false, "error": "..."}

``outcome`` is exactly :meth:`repro.runtime.QueryOutcome.to_dict` — the
same serialization ``repro-gql match --json`` prints, so tooling can
consume both uniformly.  ``versions`` names the document version the
answer was computed against: the one the run (or the result-cache
probe) was keyed on, read before the run started.

A query's answer is a binding table: one block per search, each row a
flat list of ids under the block's names::

    {"graph": "g1", "nodes": ["u1", "u2"], "edges": ["e1"],
     "rows": [["v3", "v7", "e12"], ["v7", "v3", "e12"]]}

A row holds ``len(nodes)`` data node ids, then ``len(edges)`` data edge
ids, in name order: the engine's own row layout
(:class:`~repro.core.bindings.Block`), sent as it is, so no row is
copied between the search and the socket (protocol version 2).  A
cluster coordinator's merged blocks add ``"shard"``.
:class:`AnswerRows` is the read-only row view over the blocks that
servers, clients and the coordinator hand their callers; a client
refuses a malformed block with :class:`ProtocolError`.

The optional fields of ``query`` and ``explain`` are checked before
anything is submitted: ``limit``, ``max_steps`` and ``max_memory`` are
integers >= 1, ``timeout`` is a finite number >= 0, ``document`` and
``client`` are strings, and ``baseline``, ``no_cache`` and ``analyze``
are booleans (JSON ``null`` is the same as leaving a field out).  A
request that breaks one of these rules is answered ``ok: false`` and
never reaches admission, so it is not counted as submitted.

Every op is read-only, so a retried request (same ``id``, ``attempt``
> 1) simply runs again.  The only replayed answer is a result-cache
``"hit"``, whose key includes the document's version: a write makes it
unreachable.  Unknown request fields are ignored.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.bindings import Block, BlockSequence

#: Protocol revision, echoed by ``ping``.
PROTOCOL_VERSION = 2

#: Upper bound on one request/response line (guards server memory
#: against a hostile or broken peer).
MAX_LINE_BYTES = 16 * 1024 * 1024

VALID_OPS = ("query", "cancel", "stats", "explain", "ping",
             "health", "ready")


class ProtocolError(ValueError):
    """A malformed request or response line."""


def _positive_int(value: Any) -> bool:
    return type(value) is int and value >= 1


def _non_negative_number(value: Any) -> bool:
    return (type(value) in (int, float) and math.isfinite(value)
            and value >= 0)


#: The optional ``query``/``explain`` fields: the check each value must
#: pass, and what the error says it should be.
QUERY_FIELDS: Dict[str, Tuple[Callable[[Any], bool], str]] = {
    "limit": (_positive_int, "an integer >= 1"),
    "max_steps": (_positive_int, "an integer >= 1"),
    "max_memory": (_positive_int, "an integer >= 1"),
    "timeout": (_non_negative_number, "a number >= 0"),
    "document": (lambda value: isinstance(value, str), "a string"),
    "client": (lambda value: isinstance(value, str), "a string"),
    "baseline": (lambda value: isinstance(value, bool), "a boolean"),
    "no_cache": (lambda value: isinstance(value, bool), "a boolean"),
    "analyze": (lambda value: isinstance(value, bool), "a boolean"),
}


def encode(message: Dict[str, Any]) -> bytes:
    """One message as a newline-terminated JSON line."""
    line = json.dumps(message, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8") + b"\n"
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"message of {len(line)} bytes exceeds the "
            f"{MAX_LINE_BYTES}-byte line limit"
        )
    return line


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one line into a message dict."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError("line exceeds the protocol size limit")
    if not line.strip():
        # empty and whitespace-only lines get a structured error rather
        # than a json.JSONDecodeError with a confusing position
        raise ProtocolError("empty line (a message must be a JSON object)")
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad JSON line: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("a message must be a JSON object")
    return message


def validate_request(message: Dict[str, Any]) -> str:
    """Check a request's shape; returns the operation name."""
    op = message.get("op")
    if op not in VALID_OPS:
        raise ProtocolError(
            f"unknown op {op!r} (expected one of {', '.join(VALID_OPS)})"
        )
    if op in ("query", "explain") and not isinstance(
            message.get("query"), str):
        raise ProtocolError(f'"{op}" op requires a "query" text field')
    if op in ("query", "explain"):
        for key, (valid, expected) in QUERY_FIELDS.items():
            value = message.get(key)
            if value is not None and not valid(value):
                raise ProtocolError(
                    f'"{key}" must be {expected}, not {value!r:.60}')
    if op == "stats" and message.get("format") not in (
            None, "json", "prometheus"):
        raise ProtocolError(
            '"stats" format must be "json" or "prometheus"')
    if op == "cancel" and not isinstance(message.get("target"), str):
        raise ProtocolError('"cancel" op requires a "target" request id')
    return op


def error_response(request_id: Optional[str], error: str) -> Dict[str, Any]:
    """The failure envelope (``ok: false``)."""
    return {"id": request_id, "ok": False, "error": error}


#: a :class:`Block` from a 5-tuple, without ``__new__``'s argument
#: parsing: the client builds one per decoded block
_block = Block._make


_STR, _LIST = frozenset((str,)), frozenset((list,))


def _wire_block(wire: Any) -> Block:
    """One decoded block, its shape checked: a short row would
    otherwise be cut silently by ``zip``.  The checks run per block and
    cost one ``type`` and one ``len`` per row."""
    try:
        graph, nodes, edges = wire["graph"], wire["nodes"], wire["edges"]
        rows, shard = wire["rows"], wire.get("shard")
    except (KeyError, TypeError, AttributeError):
        raise ProtocolError("an answer block must be an object with "
                            "graph, nodes, edges and rows") from None
    if not (type(graph) is str and (shard is None or type(shard) is str)
            and type(nodes) is list and type(edges) is list
            and {*map(type, nodes), *map(type, edges)} <= _STR):
        raise ProtocolError(
            "an answer block's graph and shard must be strings, its "
            f"nodes and edges lists of strings: {wire!r:.80}")
    width = len(nodes) + len(edges)
    if not (type(rows) is list and {*map(type, rows)} <= _LIST
            and {*map(len, rows)} <= {width}):
        raise ProtocolError(
            f"an answer block's rows must be lists of {width} ids: "
            f"{rows!r:.80}")
    return _block((graph, nodes, edges, rows, shard))


class AnswerRows(BlockSequence):
    """A reply's rows, read-only, over its answer blocks.

    Length, iteration and indexing are
    :class:`~repro.core.bindings.BlockSequence`'s; a row reads as one
    ``{"graph", "nodes": {...}, "edges": {...}}`` dict (plus ``"shard"``
    when its block carries one), new on every access: the only place a
    row dict is built.  ``==`` compares rows with any sequence.
    :meth:`to_wire` gives the ``"blocks"`` list, one dict per block,
    sharing the rows.
    """

    __slots__ = ()

    @staticmethod
    def read(block: Block, row: Sequence) -> Dict[str, Any]:
        width = len(block.nodes)
        entry = {"graph": block.graph, "nodes": dict(zip(block.nodes, row)),
                 "edges": dict(zip(block.edges, row[width:]))}
        if block.shard is not None:
            entry["shard"] = block.shard
        return entry

    @classmethod
    def from_wire(cls, blocks: Any) -> "AnswerRows":
        """The view of a decoded ``"blocks"`` list; raises
        :class:`ProtocolError` on a malformed block."""
        if type(blocks) is not list:
            raise ProtocolError('"blocks" must be a list')
        return cls(map(_wire_block, blocks))

    def to_wire(self) -> List[Dict[str, Any]]:
        """The ``"blocks"`` list of a reply."""
        wire = []
        for block in self.blocks:
            entry = {"graph": block.graph, "nodes": block.nodes,
                     "edges": block.edges, "rows": block.rows}
            if block.shard is not None:
                entry["shard"] = block.shard
            wire.append(entry)
        return wire

    def head(self, count: int) -> "AnswerRows":
        """The first *count* rows, the block the cap falls in cut short."""
        kept = []
        for block in self.blocks:
            if count <= 0:
                break
            if len(block.rows) > count:
                block = block._replace(rows=block.rows[:count])
            kept.append(block)
            count -= len(block.rows)
        return AnswerRows(kept)

    def tagged(self, shard: str) -> "AnswerRows":
        """These rows with every block naming *shard*."""
        return AnswerRows(block._replace(shard=shard)
                          for block in self.blocks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other))

    __hash__ = None  # type: ignore[assignment]
