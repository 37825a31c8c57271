"""Structured diagnostics: what the static analyzer reports.

A :class:`Diagnostic` is one finding — a stable ``code`` (``GQL001`` …),
a :class:`Severity`, a human message and an optional source
:class:`Span`.  Diagnostics are plain values: the analyzer
produces them, and every consumer (compiler, ``repro-gql check``, the
service's admission validation, EXPLAIN) decides independently which
severities it acts on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, Iterable, List, Optional, Tuple


class Severity(Enum):
    """How actionable a finding is.

    ``ERROR`` — the query is wrong: it cannot produce the intended
    result (syntax error, unbound variable).  The compiler refuses
    these by default and the service rejects them at admission.

    ``WARNING`` — the query is legal under semistructured semantics but
    almost surely a bug (unknown attribute, always-false predicate,
    cartesian product).  ``repro-gql check --strict`` promotes these.

    ``HINT`` — a missed opportunity, not a defect (unused binding, a
    predicate that could ride the attribute index).
    """

    ERROR = "error"
    WARNING = "warning"
    HINT = "hint"

    @property
    def rank(self) -> int:
        """ERROR > WARNING > HINT, for sorting and thresholds."""
        return {"error": 3, "warning": 2, "hint": 1}[self.value]


@dataclass(frozen=True)
class Span:
    """A 1-based source position; ``(0, 0)`` means "no position"."""

    line: int = 0
    column: int = 0

    @property
    def known(self) -> bool:
        return self.line > 0

    def __str__(self) -> str:
        return f"{self.line}:{self.column}" if self.known else "-"


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding."""

    code: str
    severity: Severity
    message: str
    span: Optional[Span] = None

    def to_dict(self) -> Dict[str, Any]:
        """The JSON/wire form (used in outcome ``detail`` payloads)."""
        payload: Dict[str, Any] = {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
        }
        if self.span is not None and self.span.known:
            payload["line"] = self.span.line
            payload["column"] = self.span.column
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Diagnostic":
        """Rebuild a diagnostic from :meth:`to_dict` output."""
        line = int(data.get("line", 0))
        column = int(data.get("column", 0))
        return cls(
            code=str(data.get("code", "")),
            severity=Severity(data.get("severity", "error")),
            message=str(data.get("message", "")),
            span=Span(line, column) if line else None,
        )

    def render(self, source: str = "<query>") -> str:
        """One ``file:line:col: severity CODE message`` line."""
        where = (f"{source}:{self.span.line}:{self.span.column}"
                 if self.span is not None and self.span.known else source)
        return f"{where}: {self.severity.value} {self.code} {self.message}"


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    """Whether any finding is error-severity."""
    return any(d.severity is Severity.ERROR for d in diagnostics)


def errors_only(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """The error-severity findings, in order."""
    return [d for d in diagnostics if d.severity is Severity.ERROR]


def promote_warnings(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """``--strict`` mode: every WARNING becomes an ERROR (hints stay)."""
    return [
        Diagnostic(d.code, Severity.ERROR, d.message, d.span)
        if d.severity is Severity.WARNING else d
        for d in diagnostics
    ]


def sort_diagnostics(
    diagnostics: Iterable[Diagnostic],
) -> List[Diagnostic]:
    """Source order (unknown spans last), severity as tiebreaker."""
    def key(d: Diagnostic) -> Tuple[int, int, int, str]:
        span = d.span or Span()
        line = span.line if span.known else 10 ** 9
        return (line, span.column, -d.severity.rank, d.code)

    return sorted(diagnostics, key=key)


def to_wire(diagnostics: Iterable[Diagnostic]) -> List[Dict[str, Any]]:
    """The list form attached to outcomes and JSON documents."""
    return [d.to_dict() for d in diagnostics]
