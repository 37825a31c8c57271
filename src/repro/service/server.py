"""The TCP front end: ``repro-gql serve``.

A :class:`socketserver.ThreadingTCPServer` speaking the newline-delimited
JSON protocol of :mod:`repro.service.protocol`.  Each connection gets a
handler thread that reads requests sequentially; query execution itself
happens on the :class:`~repro.service.QueryService` worker pool, so the
handler thread only blocks waiting for its own responses and admission
control stays global across connections.

Graceful drain: :meth:`QueryServer.shutdown_gracefully` (wired to
SIGTERM/SIGINT by the CLI) closes the listening socket first — new
connections are refused immediately — then drains the service: in-flight
queries finish or are cancelled at the drain deadline, and final metrics
are logged.
"""

from __future__ import annotations

import logging
import socket
import socketserver
import threading
import time
from typing import Any, Dict, Optional, Tuple

from .protocol import (
    ProtocolError,
    decode,
    encode,
    error_response,
    validate_request,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
)
from .service import DRAIN_TIMEOUT, QueryRequest, QueryService

logger = logging.getLogger(__name__)


class _Handler(socketserver.StreamRequestHandler):
    """One connection: a sequential request/response session."""

    #: fully buffered reads; the per-line memory bound comes from the
    #: size argument passed to ``readline`` in :meth:`handle`
    rbufsize = -1

    def setup(self) -> None:
        super().setup()
        self.server._track_handler(self)  # type: ignore[attr-defined]

    def finish(self) -> None:
        self.server._untrack_handler(self)  # type: ignore[attr-defined]
        super().finish()

    def handle(self) -> None:
        server: "QueryServer" = self.server  # type: ignore[assignment]
        while not server.draining:
            try:
                line = self.rfile.readline(MAX_LINE_BYTES + 1)
            except (ConnectionError, OSError):
                break
            if not line:
                break  # client closed
            if len(line) > MAX_LINE_BYTES:
                # readline stopped mid-line: the tail of this oversized
                # line is still unread and would otherwise be parsed as
                # spurious new requests. Reject and close the connection
                # — there is no way to stay in sync with the stream.
                self._send(error_response(
                    None, "request line exceeds the protocol size limit"))
                break
            stripped = line.strip()
            if not stripped:
                # blank keepalive/noise lines get a structured error so
                # broken clients notice instead of silently stalling
                if not self._send(error_response(
                        None,
                        "empty line (a message must be a JSON object)")):
                    break
                continue
            if not self._send(server.handle_message(stripped)):
                break

    def _send(self, response: Dict[str, Any]) -> bool:
        """Write one response line; False when the connection is gone."""
        try:
            payload = encode(response)
        except ProtocolError as exc:
            # the result set outgrew the line limit (e.g. a cancelled
            # query carrying a huge partial answer): deliver the
            # outcome without the rows rather than dropping the
            # connection
            payload = encode(_without_blocks(response, str(exc)))
        try:
            self.wfile.write(payload)
            self.wfile.flush()
            return True
        except (ConnectionError, OSError):
            return False


def _field(message: Dict[str, Any], key: str, default: Any) -> Any:
    """A request field, JSON null counting as absent."""
    value = message.get(key)
    return default if value is None else value


def _without_blocks(response: Dict[str, Any], error: str) -> Dict[str, Any]:
    """A query response stripped to its envelope + outcome."""
    slim = {key: response[key] for key in
            ("id", "op", "request_id", "client", "outcome", "cache",
             "elapsed") if key in response}
    slim["ok"] = False
    slim["blocks"] = []
    slim["error"] = f"results dropped: {error}"
    return slim


class QueryServer(socketserver.ThreadingTCPServer):
    """The serving socket around one :class:`QueryService`."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, service: QueryService,
                 address: Tuple[str, int] = ("127.0.0.1", 0)) -> None:
        self.service = service
        self._draining = threading.Event()
        self._drained = threading.Event()
        # live connection handlers and their threads; daemon_threads
        # means the base class never joins them, so graceful shutdown
        # keeps its own registry to close and join (bounded) before the
        # final metrics/slow-log dump
        self._handlers: Dict[Any, threading.Thread] = {}
        self._handlers_lock = threading.Lock()
        super().__init__(address, _Handler)

    def _track_handler(self, handler: Any) -> None:
        with self._handlers_lock:
            self._handlers[handler] = threading.current_thread()

    def _untrack_handler(self, handler: Any) -> None:
        with self._handlers_lock:
            self._handlers.pop(handler, None)

    # -- request dispatch -----------------------------------------------------

    @property
    def draining(self) -> bool:
        """Whether graceful shutdown has begun."""
        return self._draining.is_set()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — port resolved when bound with 0."""
        return self.server_address[:2]

    def health(self) -> Dict[str, Any]:
        """The service's liveness report, draining once shutdown began.

        The wire ``health`` op and the HTTP ``/health`` route both
        answer from here, so they agree from the moment
        :meth:`shutdown_gracefully` sets the flag.
        """
        report = self.service.health()
        if self.draining:
            report["status"], report["draining"] = "draining", True
        return report

    def ready(self) -> Tuple[bool, str]:
        """The service's readiness, refused once shutdown began (the
        wire ``ready`` op and the HTTP ``/ready`` route)."""
        ready, reason = self.service.ready()
        if ready and self.draining:
            return False, "draining"
        return ready, reason

    def metrics_exporter(self, host: str = "127.0.0.1", port: int = 0):
        """The ``serve --metrics-port`` HTTP exporter (not yet started):
        ``/metrics`` and ``/stats`` from the service, ``/health`` and
        ``/ready`` from this server, exactly as the wire ops answer."""
        from ..obs.httpexport import MetricsHTTPExporter

        return MetricsHTTPExporter(
            self.service.metrics_text, json_fn=self.service.stats,
            host=host, port=port,
            health_fn=self.health, ready_fn=self.ready)

    def handle_message(self, line: bytes) -> Dict[str, Any]:
        """Decode, dispatch and answer one request line."""
        try:
            message = decode(line)
        except ProtocolError as exc:
            return error_response(None, str(exc))
        request_id = message.get("id")
        try:
            op = validate_request(message)
        except ProtocolError as exc:
            return error_response(request_id, str(exc))
        try:
            if op == "ping":
                return {"id": request_id, "ok": True, "op": "ping",
                        "version": PROTOCOL_VERSION,
                        "draining": self.draining}
            if op == "health":
                return {"id": request_id, "ok": True, "op": "health",
                        "health": self.health()}
            if op == "ready":
                ready, reason = self.ready()
                host, port = self.address
                return {"id": request_id, "ok": True, "op": "ready",
                        "ready": ready, "reason": reason,
                        "host": host, "port": port}
            if op == "stats":
                if message.get("format") == "prometheus":
                    return {"id": request_id, "ok": True, "op": "stats",
                            "stats_text": self.service.metrics_text()}
                return {"id": request_id, "ok": True, "op": "stats",
                        "stats": self.service.stats()}
            if op == "explain":
                report = self.service.explain(
                    message["query"],
                    document=_field(message, "document", "data"),
                    analyze=bool(message.get("analyze", False)),
                    baseline=bool(message.get("baseline", False)),
                    limit=message.get("limit"),
                    timeout=message.get("timeout"),
                )
                return {"id": request_id, "ok": True, "op": "explain",
                        "explain": report}
            if op == "cancel":
                cancelled = self.service.cancel(
                    message["target"],
                    reason=message.get("reason", "cancelled by client"),
                )
                return {"id": request_id, "ok": True, "op": "cancel",
                        "target": message["target"], "cancelled": cancelled}
            return self._handle_query(message, request_id)
        except Exception as exc:  # never kill the connection on a bug
            logger.exception("request %r failed", request_id)
            return error_response(request_id, f"internal error: {exc}")

    def _handle_query(self, message: Dict[str, Any],
                      request_id: Optional[str]) -> Dict[str, Any]:
        client = _field(message, "client", "anon")
        attempt = message.get("attempt")
        if isinstance(attempt, int) and attempt > 1:
            # every op is read-only: a retry runs again (or hits the
            # version-keyed result cache), it is only counted here
            self.service.note_retry(client)
        request = QueryRequest(
            query=message["query"],
            document=_field(message, "document", "data"),
            client=client,
            limit=message.get("limit"),
            timeout=message.get("timeout"),
            max_steps=message.get("max_steps"),
            max_memory=message.get("max_memory"),
            baseline=bool(message.get("baseline", False)),
            use_cache=not message.get("no_cache", False),
        )
        trace, parent = message.get("trace"), message.get("parent")
        if isinstance(trace, int) and isinstance(parent, int):
            request.trace_parent = (trace, parent)
        if isinstance(request_id, str) and request_id:
            request.request_id = request_id
        response = self.service.submit(request).result()
        payload = response.to_dict()
        payload["id"] = request.request_id
        payload["ok"] = response.error is None
        payload["op"] = "query"
        return payload

    # -- lifecycle ------------------------------------------------------------

    def serve_until_shutdown(self, poll_interval: float = 0.2) -> None:
        """``serve_forever`` plus the drain handshake on the way out."""
        try:
            self.serve_forever(poll_interval=poll_interval)
        finally:
            self._drained.wait(timeout=DRAIN_TIMEOUT + 1)

    def shutdown_gracefully(self, drain_timeout: float = DRAIN_TIMEOUT) -> bool:
        """Refuse new work, drain in-flight queries, stop the pool.

        Safe to call from a signal handler thread.  Returns True when
        every in-flight query finished inside the drain deadline.
        """
        if self._draining.is_set():
            self._drained.wait()
            return True
        self._draining.set()
        # stop accepting and close the listening socket *first*: clients
        # see connection refused for the entire drain window
        self.shutdown()
        self.server_close()
        clean = self.service.drain(drain_timeout)
        self.service.shutdown(timeout=0)
        # join handler threads (bounded) before the final dumps so the
        # metrics summary and slow-query log include every response the
        # handlers were still writing; daemon threads would otherwise
        # race the dump (or die mid-write on interpreter exit)
        self._join_handlers(timeout=2.0)
        logger.info("drained %s: %s",
                    "cleanly" if clean else "with cancellations",
                    self.service.metrics.summary())
        for line in self.service.slow_log.render_lines():
            logger.info("slow query: %s", line)
        self._drained.set()
        return clean

    def _join_handlers(self, timeout: float) -> bool:
        """Close lingering connections, then join their threads.

        Handlers blocked in ``readline`` on idle connections never see
        the draining flag on their own; shutting their sockets down
        unblocks them.  Returns True when every handler thread exited
        inside the shared *timeout* budget.
        """
        with self._handlers_lock:
            handlers = dict(self._handlers)
        for handler in handlers:
            try:
                handler.connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        deadline = time.monotonic() + timeout
        for thread in handlers.values():
            if thread is threading.current_thread():
                continue  # shutdown issued from inside a handler
            thread.join(max(0.0, deadline - time.monotonic()))
        return not any(
            thread.is_alive() for thread in handlers.values()
            if thread is not threading.current_thread())


def probe(host: str, port: int, timeout: float = 0.5) -> bool:
    """Whether something is accepting TCP connections at host:port."""
    try:
        with socket.create_connection((host, port), timeout=timeout):
            return True
    except OSError:
        return False
