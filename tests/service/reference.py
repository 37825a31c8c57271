"""The row-dict answer shape, as the service built it before answers
crossed the wire as blocks.

``answer_rows`` turns per-graph answer tables into one
``{"graph": name, "nodes": {...}, "edges": {...}}`` dict per mapping,
in graph order.  ``src/repro/service/protocol.py`` ships the same
answers as blocks of flat id rows and builds these dicts only when a
caller reads a row; ``test_answer_blocks.py`` checks that the rows read
back through that view are exactly these.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple

from repro.core.bindings import AnswerTable


def answer_rows(
    tables: Iterable[Tuple[str, AnswerTable]],
) -> List[Dict[str, Any]]:
    """Per-graph answer tables as new row dicts, in graph order."""
    rows: List[Dict[str, Any]] = []
    for name, table in tables:
        for node_names, edge_names, block in table.blocks:
            rows.extend([{"graph": name,
                          "nodes": dict(zip(node_names, node_ids)),
                          "edges": dict(zip(edge_names, edge_ids))}
                         for node_ids, edge_ids in block])
    return rows
