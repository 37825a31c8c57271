"""repro.obs — the shared observability subsystem.

Three independent cores, importable without dragging in the engine:

- :mod:`repro.obs.trace` — hierarchical spans with a zero-cost disabled
  path, a context-local current span, and a JSONL sink for offline
  reconstruction;
- :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges and histograms with a Prometheus text renderer;
- :mod:`repro.obs.slowlog` — a keep-the-N-slowest request log.

:mod:`repro.obs.explain` (EXPLAIN/ANALYZE) and
:mod:`repro.obs.httpexport` (the scrape endpoint) import the matcher and
``http.server`` respectively, so they are *not* re-exported here —
import them directly where needed.
"""

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus_text,
    render_prometheus,
)
from .slowlog import SlowQueryEntry, SlowQueryLog
from .trace import (
    NOOP_SPAN,
    JsonlSink,
    Span,
    SpanCollector,
    Tracer,
    current_span,
    disable_tracing,
    enable_tracing,
    find_spans,
    read_trace,
    span,
    span_tree,
    tracer,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_prometheus_text",
    "render_prometheus",
    "SlowQueryEntry",
    "SlowQueryLog",
    "NOOP_SPAN",
    "JsonlSink",
    "Span",
    "SpanCollector",
    "Tracer",
    "current_span",
    "disable_tracing",
    "enable_tracing",
    "find_spans",
    "read_trace",
    "span",
    "span_tree",
    "tracer",
]
