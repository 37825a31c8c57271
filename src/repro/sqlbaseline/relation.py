"""Relations (tables) for the SQL baseline engine.

The paper's comparison system stores a graph in two tables —
``V(vid, label)`` and ``E(vid1, vid2)`` — with MySQL's B-tree indexes on
every column (Section 5).  This module provides the table abstraction those
experiments need: fixed columns, tuple rows, per-column indexes.  The
engine only ever looks an index up by equality, so an index is a hash
table from value to row ids.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Sequence, Tuple


class SchemaError(ValueError):
    """Raised for unknown tables/columns or arity mismatches."""


class Relation:
    """A named table: a schema (column names) and a list of tuple rows."""

    def __init__(self, name: str, columns: Sequence[str]) -> None:
        if len(set(columns)) != len(columns):
            raise SchemaError(f"duplicate column in {name!r}: {columns}")
        self.name = name
        self.columns = list(columns)
        self._col_index = {c: i for i, c in enumerate(self.columns)}
        self.rows: List[Tuple[Any, ...]] = []
        #: column -> value -> row ids in row order
        self._indexes: Dict[str, Dict[Any, List[int]]] = {}

    def column_position(self, column: str) -> int:
        """The position of a column in each row tuple."""
        if column not in self._col_index:
            raise SchemaError(f"unknown column {column!r} in table {self.name!r}")
        return self._col_index[column]

    def insert(self, row: Sequence[Any]) -> None:
        """Append one row, maintaining any indexes."""
        if len(row) != len(self.columns):
            raise SchemaError(
                f"table {self.name!r} expects {len(self.columns)} values, "
                f"got {len(row)}"
            )
        row_tuple = tuple(row)
        position = len(self.rows)
        self.rows.append(row_tuple)
        for column, index in self._indexes.items():
            _index_row(index, row_tuple[self._col_index[column]], position)

    def insert_many(self, rows: Sequence[Sequence[Any]]) -> None:
        """Append several rows."""
        for row in rows:
            self.insert(row)

    def create_index(self, column: str) -> None:
        """Build (or rebuild) an equality index on one column."""
        position = self.column_position(column)
        index: Dict[Any, List[int]] = {}
        for row_id, row in enumerate(self.rows):
            _index_row(index, row[position], row_id)
        self._indexes[column] = index

    def has_index(self, column: str) -> bool:
        """Whether the column is indexed."""
        return column in self._indexes

    def index_lookup(self, column: str, value: Any) -> List[int]:
        """Row ids whose column equals *value* (requires an index)."""
        if column not in self._indexes:
            raise SchemaError(f"no index on {self.name}.{column}")
        return list(self._indexes[column].get(value, ()))

    def scan(self) -> Iterator[Tuple[int, Tuple[Any, ...]]]:
        """Iterate ``(row_id, row)`` pairs."""
        return iter(enumerate(self.rows))

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, cols={self.columns}, rows={len(self.rows)})"


def _index_row(index: Dict[Any, List[int]], value: Any, row_id: int) -> None:
    if value == value:  # NaN equals nothing, so no lookup may find it
        index.setdefault(value, []).append(row_id)


class RelationalDatabase:
    """A catalog of relations (the SQL baseline's storage layer)."""

    def __init__(self) -> None:
        self._tables: Dict[str, Relation] = {}

    def create_table(self, name: str, columns: Sequence[str]) -> Relation:
        """Create a table; fails if it already exists."""
        if name in self._tables:
            raise SchemaError(f"table {name!r} already exists")
        table = Relation(name, columns)
        self._tables[name] = table
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table."""
        if name not in self._tables:
            raise SchemaError(f"unknown table {name!r}")
        del self._tables[name]

    def table(self, name: str) -> Relation:
        """Look up a table by name."""
        if name not in self._tables:
            raise SchemaError(f"unknown table {name!r}")
        return self._tables[name]

    def has_table(self, name: str) -> bool:
        """Whether the table exists."""
        return name in self._tables

    def tables(self) -> List[str]:
        """All table names."""
        return list(self._tables)
