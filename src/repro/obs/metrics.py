"""Counters, gauges and histograms with a Prometheus renderer.

A :class:`MetricsRegistry` is a named family store: ``counter()`` /
``gauge()`` / ``histogram()`` get-or-create an instrument, optionally
distinguished by static labels (``labels={"status": "COMPLETE"}``).
:func:`render_prometheus` writes the classic text exposition format
(``# HELP`` / ``# TYPE`` headers, cumulative ``_bucket{le="..."}``
samples).  The JSON view of a service is its ``stats()`` document, not
a mirror of the registry.

:class:`Histogram` has fixed sorted bucket bounds, :func:`bisect.bisect_left`
bucket lookup instead of a linear scan, and cumulative Prometheus-style
counts in :meth:`Histogram.snapshot`.

Metric naming conventions (see ``docs/observability.md``): prefix
``repro_``, snake_case, ``_total`` suffix on counters, ``_seconds`` /
``_bytes`` unit suffixes on histograms and gauges.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_prometheus",
    "parse_prometheus_text",
]

#: Default histogram bucket upper bounds, in seconds (the last bucket is
#: unbounded).  Chosen to straddle the paper's millisecond-scale queries
#: and pathological multi-second stragglers.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.002, 0.005,
    0.01, 0.02, 0.05,
    0.1, 0.2, 0.5,
    1.0, 2.0, 5.0, 10.0,
)

LabelSet = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Dict[str, str]]) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (thread-safe)."""

    kind = "counter"

    def __init__(self, name: str = "", help: str = "",
                 labels: Optional[Dict[str, str]] = None) -> None:
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: float = 1) -> None:
        """Add *n* (never negative: a counter only goes up)."""
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += n

    @property
    def value(self):
        """The current count."""
        with self._lock:
            return self._value

    def snapshot(self):
        """JSON-ready value."""
        return self.value


class Gauge:
    """A live value: a callback read at collection time."""

    kind = "gauge"

    def __init__(self, name: str = "", help: str = "",
                 labels: Optional[Dict[str, str]] = None,
                 fn: Optional[Callable[[], float]] = None) -> None:
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self.fn = fn

    @property
    def value(self):
        """The callback's current value (0 without a callback; a failing
        callback reads as 0 rather than breaking a scrape)."""
        try:
            return self.fn() if self.fn is not None else 0
        except Exception:
            return 0

    def snapshot(self):
        """JSON-ready value."""
        return self.value


class Histogram:
    """Fixed-bucket histogram with cumulative Prometheus semantics.

    ``observe`` locates the bucket by binary search over the sorted
    bounds.
    """

    kind = "histogram"

    def __init__(self, name: str = "", help: str = "",
                 labels: Optional[Dict[str, str]] = None,
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self.bounds: List[float] = sorted(float(b) for b in buckets)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0
        self.max = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Account one observation."""
        # first bound >= value, i.e. the old "value <= bound" scan
        index = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.total += 1
            self.sum += value
            if value > self.max:
                self.max = value

    def quantile(self, q: float) -> float:
        """Approximate quantile (upper bound of the covering bucket)."""
        with self._lock:
            if self.total == 0:
                return 0.0
            target = q * self.total
            seen = 0
            for i, count in enumerate(self.counts):
                seen += count
                if seen >= target:
                    return (self.bounds[i] if i < len(self.bounds)
                            else self.max)
            return self.max

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``+Inf`` last."""
        with self._lock:
            out: List[Tuple[float, int]] = []
            running = 0
            for bound, count in zip(self.bounds, self.counts):
                running += count
                out.append((bound, running))
            out.append((float("inf"), self.total))
        return out

    def snapshot(self) -> Dict[str, object]:
        """A JSON-ready view: cumulative bucket counts plus summaries."""
        buckets = {
            ("+Inf" if bound == float("inf") else f"{bound:g}"): count
            for bound, count in self.cumulative_buckets()
        }
        with self._lock:
            mean = self.sum / self.total if self.total else 0.0
            total, maximum, summed = self.total, self.max, self.sum
        return {
            "count": total,
            "sum": summed,
            "mean": mean,
            "max": maximum,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": buckets,
        }


class _Family:
    """All instruments sharing one metric name (one per label set)."""

    __slots__ = ("name", "kind", "help", "instruments")

    def __init__(self, name: str, kind: str, help: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.instruments: "OrderedDict[LabelSet, Any]" = OrderedDict()


_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


class MetricsRegistry:
    """Get-or-create store of metric families, in registration order."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: "OrderedDict[str, _Family]" = OrderedDict()

    def _instrument(self, name: str, kind: str, help: str,
                    labels: Optional[Dict[str, str]],
                    factory: Callable[[], Any]):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}, "
                    f"not {kind}")
            instrument = family.instruments.get(key)
            if instrument is None:
                instrument = factory()
                family.instruments[key] = instrument
            return instrument

    def counter(self, name: str, help: str = "",
                labels: Optional[Dict[str, str]] = None) -> Counter:
        """Get or create a counter."""
        return self._instrument(
            name, "counter", help, labels,
            lambda: Counter(name, help, labels))

    def gauge(self, name: str, help: str = "",
              labels: Optional[Dict[str, str]] = None,
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        """Get or create a gauge read from *fn*."""
        gauge = self._instrument(
            name, "gauge", help, labels,
            lambda: Gauge(name, help, labels, fn=fn))
        if fn is not None and gauge.fn is None:
            gauge.fn = fn
        return gauge

    def histogram(self, name: str, help: str = "",
                  labels: Optional[Dict[str, str]] = None,
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
                  ) -> Histogram:
        """Get or create a histogram."""
        return self._instrument(
            name, "histogram", help, labels,
            lambda: Histogram(name, help, labels, buckets=buckets))

    def collect(self) -> List[Dict[str, Any]]:
        """Families with their per-label-set instruments, stable order."""
        with self._lock:
            families = [(f.name, f.kind, f.help, list(f.instruments.items()))
                        for f in self._families.values()]
        out = []
        for name, kind, help, instruments in families:
            out.append({
                "name": name,
                "kind": kind,
                "help": help,
                "samples": [
                    {"labels": dict(labelset), "value": inst.snapshot()}
                    for labelset, inst in instruments
                ],
            })
        return out


# --------------------------------------------------------------------------
# Renderers
# --------------------------------------------------------------------------


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _labels_text(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{_escape_label(v)}"'
                    for k, v in sorted(labels.items()))
    return "{" + body + "}"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """The Prometheus text exposition format of a registry."""
    lines: List[str] = []
    for family in registry.collect():
        name, kind = family["name"], family["kind"]
        if family["help"]:
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {kind}")
        for sample in family["samples"]:
            labels = sample["labels"]
            if kind == "histogram":
                snap = sample["value"]
                for bound, count in snap["buckets"].items():
                    bucket_labels = dict(labels, le=bound)
                    lines.append(f"{name}_bucket{_labels_text(bucket_labels)}"
                                 f" {count}")
                lines.append(f"{name}_sum{_labels_text(labels)}"
                             f" {_fmt(snap['sum'])}")
                lines.append(f"{name}_count{_labels_text(labels)}"
                             f" {snap['count']}")
            else:
                lines.append(f"{name}{_labels_text(labels)}"
                             f" {_fmt(sample['value'])}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# A small text-format parser (the tests use it to check that what we
# expose is really scrapeable)
# --------------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{([^{}]*)\})?"
    r"\s+(\S+)(?:\s+\d+)?$")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus_text(text: str) -> Dict[str, float]:
    """Parse exposition text into ``{"name{labels}": value}``.

    Strict enough to catch malformed output: every non-comment line must
    be a well-formed sample with a float-parseable value, label bodies
    must be ``key="value"`` lists, and ``# TYPE`` lines must name a known
    type.  Raises :class:`ValueError` on the first violation.
    """
    samples: Dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) < 4 or parts[3] not in (
                        "counter", "gauge", "histogram", "summary",
                        "untyped"):
                    raise ValueError(f"line {lineno}: bad TYPE line {line!r}")
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: unparseable sample {line!r}")
        name, label_body, raw_value = match.groups()
        labels: Dict[str, str] = {}
        if label_body:
            consumed = 0
            for pair in _LABEL_RE.finditer(label_body):
                labels[pair.group(1)] = pair.group(2)
                consumed = pair.end()
            remainder = label_body[consumed:].strip().strip(",")
            if remainder:
                raise ValueError(
                    f"line {lineno}: bad label body {label_body!r}")
        if raw_value == "+Inf":
            value = float("inf")
        elif raw_value == "-Inf":
            value = float("-inf")
        else:
            try:
                value = float(raw_value)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: bad sample value {raw_value!r}"
                ) from None
        key = name + _labels_text(labels)
        samples[key] = value
    return samples
