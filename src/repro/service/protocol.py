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

    {"id": "q1", "ok": true, "op": "query", "results": [...],
     "outcome": {"status": "COMPLETE", ...}, "cache": "miss", ...}
    {"id": "c1", "ok": true, "op": "cancel", "cancelled": true}
    {"id": "x", "ok": false, "error": "..."}

``outcome`` is exactly :meth:`repro.runtime.QueryOutcome.to_dict` — the
same serialization ``repro-gql match --json`` prints, so tooling can
consume both uniformly.

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
from typing import Any, Callable, Dict, Optional, Tuple

#: Protocol revision, echoed by ``ping``.
PROTOCOL_VERSION = 1

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
