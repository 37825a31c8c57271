"""Hierarchical tracing spans for the whole engine.

One :class:`Tracer` (usually the module-level singleton, reachable via
:func:`tracer` / :func:`span`) hands out :class:`Span` objects that form
a tree: the current span is tracked in a :mod:`contextvars` variable, so
``with span("match.refine"):`` nests under whatever span is active on
the same thread, and concurrent requests on different worker threads
never interleave their trees.

Design constraints, in order:

1. **Disabled-mode overhead must be negligible.**  When the tracer is
   off, :meth:`Tracer.span` returns the shared :data:`NOOP_SPAN`
   singleton — no allocation, no context-variable write, and every
   method on it is a one-line no-op.  Instrumented code therefore never
   guards its ``with span(...)`` blocks.
2. **Cross-thread request trees.**  A service request is admitted on the
   caller's thread but executed on a pool worker.  The service creates
   the root explicitly with :meth:`Tracer.start` and adopts it on the
   worker via :meth:`Tracer.activate`, so matcher spans nest under the
   request that caused them.
3. **Offline reconstruction.**  A :class:`JsonlSink` appends one JSON
   line per finished span (trace/span/parent ids, monotonic start,
   duration, tags, counters); :func:`read_trace` + :func:`span_tree`
   rebuild the tree from the file alone.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "NOOP_SPAN",
    "Span",
    "Tracer",
    "JsonlSink",
    "SpanCollector",
    "tracer",
    "span",
    "current_span",
    "enable_tracing",
    "disable_tracing",
    "read_trace",
    "span_tree",
    "find_spans",
]

# span/trace ids must stay unique across *processes*, not just threads:
# a cluster fan-out stitches the coordinator's JSONL trace together with
# each shard server's via the ids sent over the wire, so two processes
# must never mint the same id.  Each process draws from its own
# pid-prefixed range (ids stay < 2**60, safely inside JSON's exact-int
# window).  Forked pool workers would inherit the parent's range, but
# they never enable tracing, so no collision can be emitted.
_ids = itertools.count(((os.getpid() & 0xFFFFF) << 40) | 1)

#: The active span of the current thread/context (None at top level).
_current: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "repro_obs_current_span", default=None)


class _NoopSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()
    enabled = False
    name = ""
    tags: Dict[str, Any] = {}
    counters: Dict[str, float] = {}

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def annotate(self, **tags) -> None:
        """No-op."""

    def incr(self, counter: str, n: float = 1) -> None:
        """No-op."""

    def finish(self) -> None:
        """No-op."""

    def __repr__(self) -> str:
        return "<noop span>"


NOOP_SPAN = _NoopSpan()


class Span:
    """One timed node of a trace tree.

    Timings use :func:`time.perf_counter` (monotonic); ``wall`` records
    the wall-clock start so offline traces can be ordered against logs.
    ``tags`` are small key/value annotations, ``counters`` accumulate
    numeric facts (results found, bytes written, ...).
    """

    __slots__ = ("tracer", "name", "trace_id", "span_id", "parent_id",
                 "tags", "counters", "started", "wall", "duration",
                 "root", "tree_times", "_tree_lock", "_token", "_finished")

    enabled = True

    def __init__(self, owner: "Tracer", name: str, trace_id: int,
                 parent: Optional["Span"] = None,
                 tags: Optional[Dict[str, Any]] = None) -> None:
        self.tracer = owner
        self.name = name
        self.trace_id = trace_id
        self.span_id = next(_ids)
        self.parent_id = parent.span_id if parent is not None else None
        self.tags: Dict[str, Any] = dict(tags) if tags else {}
        self.counters: Dict[str, float] = {}
        self.started = time.perf_counter()
        self.wall = time.time()
        self.duration: Optional[float] = None
        self._token: Optional[contextvars.Token] = None
        self._finished = False
        if parent is None:
            # a root: it aggregates per-name totals of its whole subtree
            # (the slow-query log's "top spans" view)
            self.root: "Span" = self
            self.tree_times: Optional[Dict[str, List[float]]] = {}
            self._tree_lock: Optional[threading.Lock] = threading.Lock()
        else:
            self.root = parent.root
            self.tree_times = None
            self._tree_lock = None

    # -- annotations ----------------------------------------------------------

    def annotate(self, **tags) -> None:
        """Attach/overwrite tag values."""
        self.tags.update(tags)

    def incr(self, counter: str, n: float = 1) -> None:
        """Bump a numeric counter on this span."""
        self.counters[counter] = self.counters.get(counter, 0) + n

    # -- lifecycle ------------------------------------------------------------

    def finish(self) -> None:
        """Stop the clock, fold into the root's totals, emit to sinks.

        Idempotent; ``with`` blocks call it automatically on exit.
        """
        if self._finished:
            return
        self._finished = True
        self.duration = time.perf_counter() - self.started
        root = self.root
        if root.tree_times is not None and root._tree_lock is not None:
            with root._tree_lock:
                entry = root.tree_times.setdefault(self.name, [0.0, 0])
                entry[0] += self.duration
                entry[1] += 1
        self.tracer._emit(self)

    def top_spans(self, limit: int = 8) -> Dict[str, Dict[str, float]]:
        """Per-name (total seconds, count) aggregates of this root's tree,
        heaviest first.  Empty for non-root spans."""
        if self.tree_times is None or self._tree_lock is None:
            return {}
        with self._tree_lock:
            items = sorted(self.tree_times.items(),
                           key=lambda kv: kv[1][0], reverse=True)
        return {name: {"total": total, "count": count}
                for name, (total, count) in items[:limit]}

    def __enter__(self) -> "Span":
        self._token = _current.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _current.reset(self._token)
            self._token = None
        if exc_type is not None and "error" not in self.tags:
            self.tags["error"] = f"{exc_type.__name__}: {exc}"
        self.finish()
        return False

    def record(self) -> Dict[str, Any]:
        """The JSON-ready form a :class:`JsonlSink` writes."""
        return {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.started,
            "wall": self.wall,
            "duration": self.duration,
            "tags": self.tags,
            "counters": self.counters,
        }

    def __repr__(self) -> str:
        state = (f"{self.duration * 1000:.2f}ms"
                 if self.duration is not None else "open")
        return f"<span {self.name} #{self.span_id} {state}>"


class Tracer:
    """Hands out spans and fans finished ones out to sinks."""

    def __init__(self) -> None:
        self.enabled = False
        self._sinks: List[Callable[[Span], None]] = []

    # -- configuration --------------------------------------------------------

    def enable(self, sink: Optional[Callable[[Span], None]] = None) -> None:
        """Turn tracing on, optionally adding a sink for finished spans."""
        if sink is not None:
            self._sinks.append(sink)
        self.enabled = True

    def disable(self) -> None:
        """Turn tracing off and drop every sink."""
        self.enabled = False
        self._sinks = []

    @contextmanager
    def session(self, sink: Callable[[Span], None]) -> Iterator[None]:
        """Tracing enabled with *sink* for the duration of a block; the
        previous enabled/sink state is restored afterwards."""
        previous_enabled = self.enabled
        previous_sinks = list(self._sinks)
        self._sinks = previous_sinks + [sink]
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = previous_enabled
            self._sinks = previous_sinks

    # -- span creation --------------------------------------------------------

    def span(self, name: str, **tags):
        """A child of the current span (or a new root), as a context
        manager.  Returns :data:`NOOP_SPAN` while disabled."""
        if not self.enabled:
            return NOOP_SPAN
        parent = _current.get()
        trace_id = parent.trace_id if parent is not None else next(_ids)
        return Span(self, name, trace_id, parent=parent, tags=tags)

    def start(self, name: str, parent: Optional[Span] = None,
              remote: Optional[Tuple[int, int]] = None, **tags):
        """An explicitly managed span (no context-variable side effects).

        For roots that outlive the creating frame — e.g. a service
        request admitted on one thread and finished on another.  The
        caller owns :meth:`Span.finish`.

        ``remote`` is a ``(trace_id, parent_span_id)`` pair received
        over the wire (see ``repro.service.protocol``): the new span is
        a *local* root (it aggregates its subtree's totals) but joins
        the caller's distributed trace — offline, :func:`span_tree` over
        the merged JSONL files nests it under the remote parent.
        """
        if not self.enabled:
            return NOOP_SPAN
        if parent is not None and not parent.enabled:
            parent = None
        trace_id = parent.trace_id if parent is not None else next(_ids)
        started = Span(self, name, trace_id, parent=parent, tags=tags)
        if parent is None and remote is not None:
            remote_trace, remote_parent = remote
            started.trace_id = int(remote_trace)
            started.parent_id = int(remote_parent)
        return started

    @contextmanager
    def activate(self, target) -> Iterator[Any]:
        """Adopt *target* as the current span for a block (worker threads
        re-parenting their work under a cross-thread root)."""
        if target is None or not getattr(target, "enabled", False):
            yield target
            return
        token = _current.set(target)
        try:
            yield target
        finally:
            _current.reset(token)

    def current(self) -> Optional[Span]:
        """The active span of this thread/context, or None."""
        return _current.get()

    # -- emission -------------------------------------------------------------

    def _emit(self, finished: Span) -> None:
        for sink in self._sinks:
            try:
                sink(finished)
            except Exception:  # a broken sink must never break the query
                pass


_TRACER = Tracer()


def tracer() -> Tracer:
    """The process-wide tracer."""
    return _TRACER


def span(name: str, **tags):
    """``tracer().span(...)`` — the one-liner instrumented code uses."""
    return _TRACER.span(name, **tags)


def current_span():
    """The active span (or :data:`NOOP_SPAN`), never None."""
    active = _TRACER.current()
    return active if active is not None else NOOP_SPAN


def enable_tracing(sink: Optional[Callable[[Span], None]] = None) -> None:
    """Enable the process-wide tracer."""
    _TRACER.enable(sink)


def disable_tracing() -> None:
    """Disable the process-wide tracer and drop its sinks."""
    _TRACER.disable()


# --------------------------------------------------------------------------
# Sinks
# --------------------------------------------------------------------------


class JsonlSink:
    """Appends one JSON line per finished span (the ``--trace-out`` file).

    Lines are flushed as written so a killed process still leaves a
    reconstructible trace of everything that finished.
    """

    def __init__(self, path) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self._file = open(self.path, "a", encoding="utf-8")

    def __call__(self, finished: Span) -> None:
        line = json.dumps(finished.record(), sort_keys=True, default=str)
        with self._lock:
            if self._file.closed:
                return
            self._file.write(line + "\n")
            self._file.flush()

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        with self._lock:
            if not self._file.closed:
                self._file.close()


class SpanCollector:
    """Collects finished spans in memory (tests, and the traced bench)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()

    def __call__(self, finished: Span) -> None:
        with self._lock:
            self.spans.append(finished)

    def by_name(self, name: str) -> List[Span]:
        """Finished spans with the given name."""
        with self._lock:
            return [s for s in self.spans if s.name == name]


# --------------------------------------------------------------------------
# Offline reconstruction
# --------------------------------------------------------------------------


def read_trace(path) -> List[Dict[str, Any]]:
    """Parse a JSONL trace file back into span records."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def span_tree(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Nest span records into trees (a ``children`` list per record).

    Returns the roots, ordered by start time.  Records are copied, so
    the input list is left untouched.
    """
    by_id = {r["span"]: dict(r, children=[]) for r in records}
    roots: List[Dict[str, Any]] = []
    for record in by_id.values():
        parent = record.get("parent")
        if parent is not None and parent in by_id:
            by_id[parent]["children"].append(record)
        else:
            roots.append(record)
    for record in by_id.values():
        record["children"].sort(key=lambda r: r["start"])
    roots.sort(key=lambda r: r["start"])
    return roots


def find_spans(tree: List[Dict[str, Any]], name: str) -> List[Dict[str, Any]]:
    """Every record named *name* anywhere in a :func:`span_tree` forest."""
    found: List[Dict[str, Any]] = []
    stack = list(tree)
    while stack:
        record = stack.pop()
        if record["name"] == name:
            found.append(record)
        stack.extend(record["children"])
    return found
