"""Process-pool execution helpers (opt-in CPU-bound fan-out).

The matcher is pure Python, so thread workers interleave on the GIL;
``ServiceConfig(use_processes=True)`` runs queries in worker *processes*
instead.  Each worker receives the registered documents once, as GraphQL
text via the pool initializer, and registers them in its own
:class:`~repro.storage.database.GraphDatabase` — after that, queries
ship only their pattern text, options and budget numbers across the
process boundary.

Trade-offs (documented in docs/service.md): per-request cancellation
cannot reach a worker process (the token lives in the parent), and the
workers match against the snapshot taken at pool start — mutations in
the parent require re-registering the document to be visible.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..lang.compiler import compile_pattern_text
from ..matching.planner import MatchOptions
from ..runtime import ExecutionContext
from ..storage.database import GraphDatabase
from ..storage.serializer import collection_from_text

#: Per-process state installed by :func:`pool_init`.
_STATE: Dict[str, Any] = {}


def pool_init(docs_payload: Dict[str, Tuple[str, bool]]) -> None:
    """Pool initializer: register every document in this worker's database
    (matchers and their indexes are still built on first use)."""
    database = GraphDatabase()
    for name, (text, directed) in docs_payload.items():
        database.register(name, collection_from_text(text, directed=directed))
    _STATE["database"] = database


def pool_execute(
    document: str,
    pattern_text: str,
    options: MatchOptions,
    governance: Dict[str, Any],
) -> Tuple[List[Dict[str, Any]], Dict[str, Any], List[str]]:
    """Run one query in a worker process.

    Returns ``(rows, outcome_dict, degradation_notes)`` — plain
    JSON-ready values, so the result pickles cheaply back to the parent.
    The parent validated *pattern_text* at admission, so it is compiled
    unchecked here.
    """
    pattern = compile_pattern_text(pattern_text, check=False)
    context = ExecutionContext(**governance)
    rows, notes = _STATE["database"].execute(
        document, pattern, options, context=context)
    return rows, context.outcome().to_dict(), notes
