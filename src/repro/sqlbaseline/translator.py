"""Graph ↔ relational translation for the SQL baseline (Fig. 4.2).

The data graph is stored in two tables::

    V(vid, label)     -- one row per node
    E(vid1, vid2)     -- one row per edge; undirected edges are stored in
                         both orientations (the standard trick, also used
                         by the paper's Datalog translation in Fig. 4.14)

A ground graph pattern becomes the multi-join SQL query of Fig. 4.2: one
``V`` alias per pattern node (with its label predicate), one ``E`` alias
per pattern edge (joined on both end points), and pairwise ``<>``
constraints for injectivity.  Every column is indexed, matching the
paper's MySQL setup.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.bindings import Mapping
from ..core.graph import Graph
from ..core.pattern import GroundPattern
from ..matching.neighborhood import LABEL_ATTR
from .engine import ExecutionStats, SQLEngine
from .relation import RelationalDatabase


class TranslationError(ValueError):
    """Raised when a pattern cannot be expressed in the V/E schema."""


def load_graph(
    graph: Graph,
    database: Optional[RelationalDatabase] = None,
) -> RelationalDatabase:
    """Populate V and E tables from a graph (Fig. 4.2 storage)."""
    database = database if database is not None else RelationalDatabase()
    v_table = database.create_table("V", ["vid", "label"])
    e_table = database.create_table("E", ["vid1", "vid2"])
    for node in graph.nodes():
        v_table.insert((node.id, node.get(LABEL_ATTR)))
    for edge in graph.edges():
        e_table.insert((edge.source, edge.target))
        if not graph.directed and edge.source != edge.target:
            e_table.insert((edge.target, edge.source))
    for column in ("vid", "label"):
        v_table.create_index(column)
    for column in ("vid1", "vid2"):
        e_table.create_index(column)
    return database


def pattern_to_sql(pattern: GroundPattern) -> str:
    """Render a ground pattern as the Fig. 4.2 multi-join SQL query.

    Only label-equality node constraints are expressible in the V/E
    schema; patterns with richer predicates raise
    :class:`TranslationError` (the relational baseline in the paper is
    exercised on label-constrained patterns only).
    """
    motif = pattern.motif
    node_names = motif.node_names()
    if pattern.decomposed.residual is not None:
        raise TranslationError("graph-wide predicates are not supported in SQL mode")
    node_alias = {name: f"V{i + 1}" for i, name in enumerate(node_names)}
    select_cols = [f"{node_alias[name]}.vid" for name in node_names]
    from_parts = [f"V AS {node_alias[name]}" for name in node_names]
    conditions: List[str] = []
    for name in node_names:
        motif_node = motif.node(name)
        unsupported = set(motif_node.attrs) - {LABEL_ATTR}
        if unsupported or motif_node.predicate is not None or (
            pattern.decomposed.node_preds.get(name) is not None
        ):
            raise TranslationError(
                f"pattern node {name!r} has constraints outside the V/E schema"
            )
        label = motif_node.attrs.get(LABEL_ATTR)
        if label is not None:
            conditions.append(f"{node_alias[name]}.label = {_sql_literal(label)}")
    edge_aliases: List[str] = []
    for i, edge in enumerate(motif.edges()):
        if edge.attrs or edge.predicate is not None:
            raise TranslationError(
                f"pattern edge {edge.name!r} has constraints outside the V/E schema"
            )
        alias = f"E{i + 1}"
        edge_aliases.append(alias)
        from_parts.append(f"E AS {alias}")
        conditions.append(f"{node_alias[edge.source]}.vid = {alias}.vid1")
        conditions.append(f"{node_alias[edge.target]}.vid = {alias}.vid2")
    for i in range(len(node_names)):
        for j in range(i + 1, len(node_names)):
            conditions.append(
                f"{node_alias[node_names[i]]}.vid <> {node_alias[node_names[j]]}.vid"
            )
    where = " AND ".join(conditions) if conditions else "1 = 1"
    return (
        f"SELECT {', '.join(select_cols)} "
        f"FROM {', '.join(from_parts)} "
        f"WHERE {where};"
    )


def _sql_literal(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "\\'") + "'"
    return repr(value)


class SQLGraphMatcher:
    """Runs graph pattern matching through the relational engine.

    The end-to-end SQL-based implementation the experiments compare
    against: load once, then translate each pattern to SQL, execute it,
    and convert result rows back to mappings.
    """

    def __init__(self, graph: Graph, join_order: str = "from") -> None:
        self.graph = graph
        self.database = load_graph(graph)
        self.engine = SQLEngine(self.database, join_order=join_order)

    def match(
        self,
        pattern: GroundPattern,
        limit: Optional[int] = None,
        stats: Optional[ExecutionStats] = None,
        max_rows_examined: Optional[int] = None,
        context=None,
    ) -> List[Mapping]:
        """All mappings of the pattern, computed relationally.

        For undirected graphs each automorphic image of the pattern
        appears exactly as it does in the graph-native matcher: both
        store undirected edges once per orientation, so the row set
        corresponds 1:1 to injective mappings.
        """
        sql = pattern_to_sql(pattern)
        rows = self.engine.execute(
            sql, limit=limit, stats=stats, max_rows_examined=max_rows_examined,
            context=context,
        )
        names = pattern.motif.node_names()
        return [Mapping(dict(zip(names, row))) for row in rows]

    def sql_for(self, pattern: GroundPattern) -> str:
        """The SQL text the matcher would execute (for inspection/tests)."""
        return pattern_to_sql(pattern)
