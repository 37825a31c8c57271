"""The row-dict answer shape, as the service built it before answers
crossed the wire as blocks.

``answer_rows`` turns named answer blocks into one
``{"graph": name, "nodes": {...}, "edges": {...}}`` dict per mapping,
in block order.  It reads each block as an
:class:`~repro.core.bindings.AnswerTable` and builds every dict from the
:class:`~repro.core.bindings.Mapping` the table yields, never from the
flat row itself.  ``src/repro/service/protocol.py`` ships the same
answers as blocks of flat id rows and builds these dicts only when a
caller reads a row; ``test_answer_blocks.py`` checks that the rows read
back through that view are exactly these.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from repro.core.bindings import AnswerTable, Block


def answer_rows(blocks: Iterable[Block]) -> List[Dict[str, Any]]:
    """Named answer blocks as new row dicts, one per mapping, in order."""
    rows: List[Dict[str, Any]] = []
    for block in blocks:
        for mapping in AnswerTable([block]):
            rows.append({"graph": block.graph,
                         "nodes": dict(mapping.nodes),
                         "edges": dict(mapping.edges)})
    return rows
