"""A small synchronous client for the ndjson wire protocol.

One :class:`ServiceClient` wraps one TCP connection (a sequential
session); use several clients — they are cheap — for concurrent load.

    with ServiceClient("127.0.0.1", 7687) as client:
        reply = client.query('graph P { node u <label="A">; }',
                             timeout=1.0)
        print(reply.outcome, len(reply.results))
"""

from __future__ import annotations

import itertools
import random
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple, TypeVar

from ..obs.trace import current_span
from ..runtime import QueryOutcome
from .protocol import (MAX_LINE_BYTES, AnswerRows, ProtocolError, decode,
                       encode)

T = TypeVar("T")


@dataclass
class ClientReply:
    """A decoded query response (wire dict plus typed outcome);
    ``results`` is the read-only row view over the reply's blocks."""

    ok: bool
    request_id: Optional[str]
    results: AnswerRows = field(default_factory=AnswerRows)
    outcome: QueryOutcome = field(default_factory=QueryOutcome)
    cache: str = "bypass"
    error: Optional[str] = None
    retry_after: Optional[float] = None
    #: per-document snapshot versions the server answered against
    #: (replica divergence checks compare these)
    versions: Dict[str, int] = field(default_factory=dict)
    raw: Dict[str, Any] = field(default_factory=dict)

    @property
    def rejected(self) -> bool:
        """Whether admission control turned this request away."""
        return self.outcome.status.value == "REJECTED"

    @property
    def shed(self) -> bool:
        """Whether load shedding or a breaker turned this request away."""
        return self.outcome.status.value == "SHED"


class ServiceClient:
    """Blocking client for one server connection.

    *timeout* is the overall per-call budget (socket reads and every
    retry attempt are carved from it); *connect_timeout* bounds TCP
    connection establishment alone and defaults to *timeout* — it is
    the one knob every connect honours, including retry reconnects.

    Retries are off by default (``retries=0``), preserving strict
    one-shot semantics.  With ``retries=N`` the client retries every
    call (every op is read-only) up to N extra attempts on connection failures, timeouts and
    protocol desync, reconnecting with full-jitter exponential backoff
    and tagging each resend with an ``attempt`` counter so the server
    can count retried arrivals.  A resent query runs again (or hits the
    server's version-keyed result cache): nothing replays a stale answer.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 7687,
                 timeout: Optional[float] = 30.0,
                 client_name: str = "anon",
                 connect_timeout: Optional[float] = None,
                 retries: int = 0,
                 backoff_base: float = 0.05,
                 backoff_max: float = 2.0,
                 retry_seed: Optional[int] = None) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = (connect_timeout if connect_timeout
                                is not None else timeout)
        self.client_name = client_name
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self._rng = random.Random(retry_seed)
        self._sock: Optional[socket.socket] = None
        self._reader = None
        self._ids = itertools.count(1)
        self._ever_connected = False
        #: observability: attempts beyond the first, and reconnects
        self.retry_count = 0
        self.reconnects = 0

    # -- connection -----------------------------------------------------------

    def connect(self) -> "ServiceClient":
        """Open the TCP connection (idempotent)."""
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout)
            self._sock.settimeout(self.timeout)
            self._reader = self._sock.makefile("rb")
            if self._ever_connected:
                self.reconnects += 1
            self._ever_connected = True
        return self

    def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the protocol ---------------------------------------------------------

    def call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request dict, block for its response dict.

        Every op is read-only, so with ``retries`` configured,
        connection failures, timeouts and response desync trigger a
        reconnect-and-resend, all attempts sharing one overall
        ``timeout`` budget.
        """
        return self._call(message, lambda reply: reply)

    def _call(self, message: Dict[str, Any],
              read: Callable[[Dict[str, Any]], T]) -> T:
        """:meth:`call`, *read* applied to each attempt's response: a
        :class:`ProtocolError` it raises is a desync like any other."""
        message.setdefault("id", f"{self.client_name}-{next(self._ids)}")
        # propagate trace context: with tracing enabled, the server roots
        # its request span under this caller's active span, so a cluster
        # fan-out reconstructs offline as ONE tree across processes
        active = current_span()
        if active.enabled:
            message.setdefault("trace", active.trace_id)
            message.setdefault("parent", active.span_id)
        attempts = self.retries + 1
        deadline = (time.monotonic() + self.timeout
                    if self.timeout is not None else None)
        last_exc: Optional[Exception] = None
        for attempt in range(1, attempts + 1):
            if attempt > 1:
                message["attempt"] = attempt
                self.retry_count += 1
                self._backoff(attempt, deadline)
            try:
                return read(self._call_once(message, deadline))
            except (ConnectionError, ProtocolError, OSError) as exc:
                last_exc = exc
                # the stream may be desynced (a late response could
                # still arrive): drop the connection before retrying
                self.close()
                out_of_time = (deadline is not None
                               and time.monotonic() >= deadline)
                if attempt >= attempts or out_of_time:
                    raise
        raise last_exc  # type: ignore[misc]  # unreachable

    def _call_once(self, message: Dict[str, Any],
                   deadline: Optional[float]) -> Dict[str, Any]:
        """One send/receive exchange under the remaining budget."""
        self.connect()
        assert self._sock is not None and self._reader is not None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise socket.timeout("call budget exhausted")
            # per-attempt deadline: whatever is left of the overall
            # budget, so N retries never exceed one configured timeout
            self._sock.settimeout(remaining)
        self._sock.sendall(encode(message))
        line = self._reader.readline(MAX_LINE_BYTES + 1)
        if not line:
            raise ConnectionError("server closed the connection")
        reply = decode(line)
        reply_id = reply.get("id")
        if reply_id is not None and reply_id != message["id"]:
            # a stale or duplicated frame (e.g. after packet games on a
            # flaky path): the session is out of sync beyond repair
            raise ProtocolError(
                f"response id {reply_id!r} does not match "
                f"request id {message['id']!r}")
        return reply

    def _backoff(self, attempt: int, deadline: Optional[float]) -> None:
        """Sleep with full jitter, capped by the remaining budget."""
        cap = min(self.backoff_max,
                  self.backoff_base * (2 ** (attempt - 2)))
        delay = self._rng.uniform(0.0, cap)
        if deadline is not None:
            delay = min(delay, max(0.0, deadline - time.monotonic()))
        if delay > 0:
            time.sleep(delay)

    def query(
        self,
        query_text: str,
        document: str = "data",
        request_id: Optional[str] = None,
        limit: Optional[int] = None,
        timeout: Optional[float] = None,
        max_steps: Optional[int] = None,
        max_memory: Optional[int] = None,
        baseline: bool = False,
        no_cache: bool = False,
    ) -> ClientReply:
        """Run one pattern query; returns a typed :class:`ClientReply`.

        Queries are read-only, so they are retried whenever the client
        has ``retries`` configured.
        """
        message: Dict[str, Any] = {
            "op": "query", "query": query_text, "document": document,
            "client": self.client_name,
        }
        if request_id is not None:
            message["id"] = request_id
        for key, value in (("limit", limit), ("timeout", timeout),
                           ("max_steps", max_steps),
                           ("max_memory", max_memory)):
            if value is not None:
                message[key] = value
        if baseline:
            message["baseline"] = True
        if no_cache:
            message["no_cache"] = True
        return self._call(message, _client_reply)

    def cancel(self, target: str,
               reason: str = "cancelled by client") -> bool:
        """Cancel an in-flight request by id; True when it was found."""
        reply = self.call({"op": "cancel", "target": target,
                           "reason": reason})
        if not reply.get("ok"):
            raise ProtocolError(reply.get("error", "cancel failed"))
        return bool(reply.get("cancelled"))

    def stats(self, format: Optional[str] = None):
        """The server's metrics snapshot.

        ``format="prometheus"`` returns the text exposition string;
        the default (or ``"json"``) returns the JSON snapshot dict.
        """
        message: Dict[str, Any] = {"op": "stats"}
        if format is not None:
            message["format"] = format
        reply = self.call(message)
        if not reply.get("ok"):
            raise ProtocolError(reply.get("error", "stats failed"))
        if format == "prometheus":
            return reply["stats_text"]
        return reply["stats"]

    def explain(
        self,
        query_text: str,
        document: str = "data",
        analyze: bool = False,
        baseline: bool = False,
        limit: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """The server's EXPLAIN [ANALYZE] document for one query."""
        message: Dict[str, Any] = {
            "op": "explain", "query": query_text, "document": document,
        }
        if analyze:
            message["analyze"] = True
        if baseline:
            message["baseline"] = True
        for key, value in (("limit", limit), ("timeout", timeout)):
            if value is not None:
                message[key] = value
        reply = self.call(message)
        if not reply.get("ok"):
            raise ProtocolError(reply.get("error", "explain failed"))
        return reply["explain"]

    def ping(self) -> Dict[str, Any]:
        """Round-trip liveness check; returns the server's ping reply."""
        reply = self.call({"op": "ping"})
        if not reply.get("ok"):
            raise ProtocolError(reply.get("error", "ping failed"))
        return reply

    def health(self) -> Dict[str, Any]:
        """The server's liveness report (drain, recovery, breakers)."""
        reply = self.call({"op": "health"})
        if not reply.get("ok"):
            raise ProtocolError(reply.get("error", "health failed"))
        return reply["health"]

    def ready(self) -> Tuple[bool, str]:
        """Whether the server is accepting work, plus the reason."""
        reply = self.call({"op": "ready"})
        if not reply.get("ok"):
            raise ProtocolError(reply.get("error", "ready failed"))
        return bool(reply.get("ready")), str(reply.get("reason", ""))


def _client_reply(reply: Dict[str, Any]) -> ClientReply:
    """A ``query`` response as a :class:`ClientReply`.  A field that does
    not decode (a flipped byte can turn ``"COMPLETE"`` into an unknown
    status) is a :class:`ProtocolError`: a desync the caller may retry."""
    try:
        outcome = (QueryOutcome.from_dict(reply["outcome"])
                   if isinstance(reply.get("outcome"), dict)
                   else QueryOutcome())
        retry_after = reply.get("retry_after")
        return ClientReply(
            ok=bool(reply.get("ok")),
            request_id=reply.get("id"),
            results=AnswerRows.from_wire(reply.get("blocks", [])),
            outcome=outcome,
            cache=str(reply.get("cache", "bypass")),
            error=reply.get("error"),
            retry_after=(float(retry_after)
                         if retry_after is not None else None),
            versions={str(doc): int(version) for doc, version
                      in (reply.get("versions") or {}).items()},
            raw=reply,
        )
    except ProtocolError:
        raise
    except (AttributeError, TypeError, ValueError) as exc:
        raise ProtocolError(f"undecodable query reply: {exc}") from None
