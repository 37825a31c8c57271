"""Executor for the SQL baseline (the paper's MySQL stand-in).

Executes :class:`~repro.sqlbaseline.sql_parser.SelectQuery` objects with
the strategy a default-configured MySQL/MyISAM would use on the Fig. 4.2
workload: a left-deep pipeline of index-nested-loop joins in FROM order.
For each table in turn, the applicable equality predicates against
already-bound tables (or literals) drive an index lookup; remaining
predicates are filtered as soon as both sides are bound.

This implementation deliberately has **no graph knowledge**: it sees only
rows, which is the architectural point the experiments make — each pattern
edge costs joins and the search space is pruned only edge-locally, never
via neighborhood structure or global refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs.trace import span as trace_span
from ..runtime import ExecutionContext, ExecutionInterrupted
from .relation import Relation, RelationalDatabase, SchemaError
from .sql_parser import ColumnRef, Comparison, SelectQuery, parse_sql


@dataclass
class ExecutionStats:
    """Work counters for one query execution."""

    rows_examined: int = 0
    index_lookups: int = 0
    results: int = 0
    tables_in_plan: int = 0
    aborted: bool = False


class WorkBudgetExceeded(RuntimeError):
    """Raised when a query exceeds its rows-examined budget.

    The budget stands in for the paper's terminated queries ("queries
    having too many hits are terminated immediately"): the SQL arm of
    the experiments is cut off once it has examined that many rows.
    """


class SQLEngine:
    """Evaluates conjunctive SELECT queries over a relational database."""

    def __init__(self, database: RelationalDatabase, join_order: str = "from") -> None:
        if join_order not in ("from", "greedy"):
            raise ValueError(f"unknown join order policy {join_order!r}")
        self.database = database
        self.join_order = join_order
        self._partial_results: List[Tuple[Any, ...]] = []

    # -- public API -------------------------------------------------------------

    def execute(
        self,
        query: str | SelectQuery,
        limit: Optional[int] = None,
        stats: Optional[ExecutionStats] = None,
        max_rows_examined: Optional[int] = None,
        context: Optional[ExecutionContext] = None,
    ) -> List[Tuple[Any, ...]]:
        """Run a query (text or parsed) and return the result rows.

        *max_rows_examined* bounds the total work; exceeding it raises
        :class:`WorkBudgetExceeded` (with ``stats.aborted`` set when stats
        are collected).  A *context* governs the join pipeline cooperatively
        instead: on deadline/budget/cancellation the partial result rows
        are returned, the interruption is recorded on the context, and
        ``stats.aborted`` is set.
        """
        if isinstance(query, str):
            query = parse_sql(query)
        self._validate(query)
        order = self._plan_order(query)
        if stats is not None:
            stats.tables_in_plan = len(order)
        with trace_span("sql.execute", tables=len(order)) as sp:
            try:
                rows = self._run(query, order, limit, stats,
                                 max_rows_examined, context)
            except ExecutionInterrupted as exc:
                if context is None:
                    raise
                context.mark_interrupted(exc)
                if stats is not None:
                    stats.aborted = True
                rows = list(self._partial_results)
                sp.annotate(aborted=True)
            sp.incr("rows", len(rows))
        return rows

    # -- planning ----------------------------------------------------------------

    def _validate(self, query: SelectQuery) -> None:
        aliases = {alias for _, alias in query.tables}
        if len(aliases) != len(query.tables):
            raise SchemaError("duplicate alias in FROM list")
        for name, _ in query.tables:
            self.database.table(name)  # raises for unknown tables
        for ref in query.select:
            if ref.alias not in aliases:
                raise SchemaError(f"unknown alias {ref.alias!r} in SELECT")
        for comparison in query.where:
            for ref in comparison.column_refs():
                if ref.alias not in aliases:
                    raise SchemaError(f"unknown alias {ref.alias!r} in WHERE")

    def _plan_order(self, query: SelectQuery) -> List[Tuple[str, str]]:
        if self.join_order == "from":
            return list(query.tables)
        # greedy: start with the table with the most literal-equality
        # predicates, then repeatedly add the table with the most equality
        # links to the placed set (a mild improvement MySQL's optimizer
        # could find; exposed for the ablation benchmark)
        remaining = list(query.tables)
        placed: List[Tuple[str, str]] = []

        def literal_eqs(alias: str) -> int:
            return sum(
                1
                for c in query.where
                if c.op == "="
                and len(c.column_refs()) == 1
                and c.column_refs()[0].alias == alias
            )

        def links(alias: str, placed_aliases: set) -> int:
            count = 0
            for c in query.where:
                refs = c.column_refs()
                if c.op == "=" and len(refs) == 2:
                    pair = {refs[0].alias, refs[1].alias}
                    if alias in pair and pair - {alias} <= placed_aliases:
                        count += 1
            return count

        remaining.sort(key=lambda t: -literal_eqs(t[1]))
        placed.append(remaining.pop(0))
        while remaining:
            placed_aliases = {a for _, a in placed}
            remaining.sort(key=lambda t: -links(t[1], placed_aliases))
            placed.append(remaining.pop(0))
        return placed

    # -- execution ----------------------------------------------------------------

    def _run(
        self,
        query: SelectQuery,
        order: List[Tuple[str, str]],
        limit: Optional[int],
        stats: Optional[ExecutionStats],
        max_rows_examined: Optional[int] = None,
        context: Optional[ExecutionContext] = None,
    ) -> List[Tuple[Any, ...]]:
        tables: Dict[str, Relation] = {
            alias: self.database.table(name) for name, alias in order
        }
        # assign each WHERE conjunct to the earliest plan position where
        # all its referenced aliases are bound
        position_of = {alias: i for i, (_, alias) in enumerate(order)}
        checks_at: List[List[Comparison]] = [[] for _ in order]
        for comparison in query.where:
            refs = comparison.column_refs()
            if not refs:
                # constant comparison: evaluate once up front
                if not _apply_op(comparison.op, comparison.left, comparison.right):
                    return []
                continue
            level = max(position_of[ref.alias] for ref in refs)
            checks_at[level].append(comparison)

        results: List[Tuple[Any, ...]] = []
        # exposed so execute() can hand back partial rows on interruption
        self._partial_results = results
        binding: Dict[str, Tuple[Any, ...]] = {}
        examined = [0]

        def emit() -> bool:
            if query.select_star:
                row = tuple(
                    value
                    for _, alias in order
                    for value in binding[alias]
                )
            else:
                row = tuple(
                    binding[ref.alias][tables[ref.alias].column_position(ref.column)]
                    for ref in query.select
                )
            results.append(row)
            if stats is not None:
                stats.results += 1
            return limit is not None and len(results) >= limit

        def recurse(level: int) -> bool:
            if level == len(order):
                return emit()
            _, alias = order[level]
            table = tables[alias]
            candidates = self._access_path(
                table, alias, checks_at[level], binding, tables, stats
            )
            for row_id in candidates:
                row = table.rows[row_id]
                examined[0] += 1
                if context is not None:
                    context.tick()
                if stats is not None:
                    stats.rows_examined += 1
                if max_rows_examined is not None and examined[0] > max_rows_examined:
                    if stats is not None:
                        stats.aborted = True
                    raise WorkBudgetExceeded(
                        f"examined more than {max_rows_examined} rows"
                    )
                binding[alias] = row
                if all(
                    self._check(c, binding, tables) for c in checks_at[level]
                ):
                    if recurse(level + 1):
                        return True
                del binding[alias]
            return False

        recurse(0)
        return results

    def _access_path(
        self,
        table: Relation,
        alias: str,
        checks: List[Comparison],
        binding: Dict[str, Tuple[Any, ...]],
        tables: Dict[str, Relation],
        stats: Optional[ExecutionStats],
    ) -> Sequence[int]:
        """Choose an index lookup when an equality predicate allows it."""
        best: Optional[List[int]] = None
        for comparison in checks:
            if comparison.op != "=":
                continue
            column = None
            value: Any = _UNBOUND
            left, right = comparison.left, comparison.right
            if isinstance(left, ColumnRef) and left.alias == alias:
                column = left.column
                value = self._operand_value(right, binding, tables)
            elif isinstance(right, ColumnRef) and right.alias == alias:
                column = right.column
                value = self._operand_value(left, binding, tables)
            if column is None or value is _UNBOUND:
                continue
            if not table.has_index(column):
                continue
            if stats is not None:
                stats.index_lookups += 1
            hits = table.index_lookup(column, value)
            if best is None or len(hits) < len(best):
                best = hits
        if best is not None:
            return best
        return range(len(table.rows))

    @staticmethod
    def _operand_value(
        operand: Any,
        binding: Dict[str, Tuple[Any, ...]],
        tables: Dict[str, Relation],
    ) -> Any:
        """A literal, a bound column's value, or _UNBOUND."""
        if isinstance(operand, ColumnRef):
            row = binding.get(operand.alias)
            if row is None:
                return _UNBOUND
            return row[tables[operand.alias].column_position(operand.column)]
        return operand

    def _check(
        self,
        comparison: Comparison,
        binding: Dict[str, Tuple[Any, ...]],
        tables: Dict[str, Relation],
    ) -> bool:
        left = self._value(comparison.left, binding, tables)
        right = self._value(comparison.right, binding, tables)
        return _apply_op(comparison.op, left, right)

    @staticmethod
    def _value(operand: Any, binding, tables) -> Any:
        if isinstance(operand, ColumnRef):
            table = tables[operand.alias]
            return binding[operand.alias][table.column_position(operand.column)]
        return operand


class _UnboundType:
    def __repr__(self) -> str:
        return "UNBOUND"


_UNBOUND = _UnboundType()


def _apply_op(op: str, left: Any, right: Any) -> bool:
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    try:
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError:
        return False
    raise AssertionError(f"unhandled operator {op!r}")
