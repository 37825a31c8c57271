"""Static analysis for GraphQL queries.

The analyzer inspects the *syntactic* AST (before compilation) and
reports structured :class:`Diagnostic` findings — scope errors, schema
mismatches, degenerate predicates, plan hazards — so bad queries are
rejected before they reach a worker.  See ``docs/language.md`` for the
full diagnostic catalog.
"""

from .analyzer import (
    CODES,
    analyze_pattern,
    analyze_pattern_text,
    analyze_program,
    analyze_text,
)
from .diagnostics import (
    Diagnostic,
    Severity,
    Span,
    errors_only,
    has_errors,
    promote_warnings,
    sort_diagnostics,
    to_wire,
)
from .schema import (
    CollectionSchema,
    infer_schema,
    schema_for_document,
    type_bucket,
)

__all__ = [
    "CODES",
    "CollectionSchema",
    "Diagnostic",
    "Severity",
    "Span",
    "analyze_pattern",
    "analyze_pattern_text",
    "analyze_program",
    "analyze_text",
    "errors_only",
    "has_errors",
    "infer_schema",
    "promote_warnings",
    "schema_for_document",
    "sort_diagnostics",
    "to_wire",
    "type_bucket",
]
