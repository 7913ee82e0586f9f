"""In-memory tables: columnar storage behind a row-facing facade."""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.cache import LRUCache
from repro.errors import CatalogError, SchemaError
from repro.relational.column import ColumnStore, RowsView
from repro.relational.index import HashIndex, SortedIndex
from repro.relational.schema import TableSchema

Row = Tuple[Any, ...]


class Table:
    """A table of tuples with optional hash and sorted indexes.

    Storage is array-of-columns (:class:`~repro.relational.column.ColumnStore`)
    so batched operators can evaluate predicates over whole column
    vectors; ``table.rows`` remains the row-facing adapter every
    pre-columnar consumer (snapshots, scans, tests) still reads — a
    :class:`~repro.relational.column.RowsView` that builds tuples on
    demand and supports iteration, indexing, and equality exactly like
    the list of tuples it replaced.

    Rows are append-only (the Biozon workload is bulk-loaded; Section 3.2
    notes updates happen offline in bulk, at which point derived tables
    are recomputed).  A primary-key hash index is created automatically
    when the schema declares one.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self.store = ColumnStore([c.dtype for c in schema.columns])
        self.rows = RowsView(self.store)
        self._hash_indexes: Dict[str, HashIndex] = {}
        self._sorted_indexes: Dict[str, SortedIndex] = {}
        # The catalog's keep-flag memo, set by Database.create_table; a
        # table outside a catalog has none, and its selections are
        # evaluated every time (repro.relational.keepmemo).
        self.keep_memo: Optional[LRUCache] = None
        if schema.primary_key is not None:
            self.create_hash_index("pk", [schema.primary_key])

    # ------------------------------------------------------------------
    # Index management
    # ------------------------------------------------------------------
    def create_hash_index(self, name: str, columns: Sequence[str]) -> HashIndex:
        if name in self._hash_indexes or name in self._sorted_indexes:
            raise CatalogError(f"index {name!r} already exists on {self.schema.name!r}")
        positions = [self.schema.column_position(c) for c in columns]
        index = HashIndex(name, positions)
        index.bulk_build_columns(self.store)
        self._hash_indexes[name] = index
        return index

    def create_sorted_index(self, name: str, column: str) -> SortedIndex:
        if name in self._hash_indexes or name in self._sorted_indexes:
            raise CatalogError(f"index {name!r} already exists on {self.schema.name!r}")
        index = SortedIndex(name, self.schema.column_position(column))
        index.bulk_build_columns(self.store)
        self._sorted_indexes[name] = index
        return index

    def hash_index_on(self, columns: Sequence[str]) -> Optional[HashIndex]:
        """Find a hash index whose key is exactly these columns (order-
        sensitive), if any."""
        positions = tuple(self.schema.column_position(c) for c in columns)
        for index in self._hash_indexes.values():
            if index.column_positions == positions:
                return index
        return None

    def sorted_index_on(self, column: str) -> Optional[SortedIndex]:
        position = self.schema.column_position(column)
        for index in self._sorted_indexes.values():
            if index.column_position == position:
                return index
        return None

    @property
    def hash_indexes(self) -> Dict[str, HashIndex]:
        return dict(self._hash_indexes)

    @property
    def sorted_indexes(self) -> Dict[str, SortedIndex]:
        return dict(self._sorted_indexes)

    # ------------------------------------------------------------------
    # Data
    # ------------------------------------------------------------------
    def insert(self, values: Union[Sequence[Any], Dict[str, Any]]) -> None:
        if isinstance(values, dict):
            row = self.schema.row_from_mapping(values)
        else:
            row = self.schema.validate_row(values)
        if self.schema.primary_key is not None:
            pk_index = self._hash_indexes["pk"]
            if pk_index.key_of(row) in pk_index.buckets():
                raise SchemaError(
                    f"duplicate primary key {pk_index.key_of(row)!r} in "
                    f"{self.schema.name!r}"
                )
        position = self.store.length
        self.store.append_row(row)
        for index in self._hash_indexes.values():
            index.insert(row, position)
        for index in self._sorted_indexes.values():
            index.insert(row, position)

    def bulk_load(self, rows: Iterable[Union[Sequence[Any], Dict[str, Any]]]) -> int:
        """Validate and append many rows, rebuilding sorted indexes once
        at the end.  Returns the number of rows loaded."""
        sorted_backups = self._sorted_indexes
        self._sorted_indexes = {}
        count = 0
        try:
            for values in rows:
                self.insert(values)
                count += 1
        finally:
            self._sorted_indexes = sorted_backups
            for index in self._sorted_indexes.values():
                index.bulk_build_columns(self.store)
        return count

    def load_rows_unchecked(self, rows: Iterable[Sequence[Any]]) -> int:
        """Append rows without per-row validation or duplicate-key
        checks, then rebuild every index once.

        Fast path for snapshot restore: the rows were validated by this
        same schema when they were first inserted, so re-checking them on
        load only slows the cold start down.  Returns the rows appended.
        """
        base = self.store.length
        count = self.store.extend_rows(rows)
        for index in self._hash_indexes.values():
            if base == 0:
                index.bulk_build_columns(self.store)
            else:
                for position in range(base, self.store.length):
                    index.insert(self.store.row_at(position), position)
        for index in self._sorted_indexes.values():
            index.bulk_build_columns(self.store)
        return count

    def index_definitions(self) -> Dict[str, List[Tuple[str, List[str]]]]:
        """Declared secondary indexes as (name, column names) pairs,
        keyed by kind — the catalog part of a table dump."""
        names = self.schema.column_names
        return {
            "hash": [
                (index.name, [names[p] for p in index.column_positions])
                for index in self._hash_indexes.values()
            ],
            "sorted": [
                (index.name, [names[index.column_position]])
                for index in self._sorted_indexes.values()
            ],
        }

    @property
    def row_count(self) -> int:
        return self.store.length

    @property
    def data_version(self) -> int:
        """Bumped on every data change; feeds statement-cache tokens."""
        return self.store.version

    def scan(self) -> Iterator[Row]:
        return iter(self.rows)

    def row_at(self, position: int) -> Row:
        return self.store.row_at(position)

    def get_by_key(self, key: Any) -> List[Row]:
        """Primary-key lookup (requires a declared primary key)."""
        if self.schema.primary_key is None:
            raise CatalogError(f"table {self.schema.name!r} has no primary key")
        return [self.store.row_at(p) for p in self._hash_indexes["pk"].lookup(key)]

    def estimated_bytes(self) -> int:
        """Rough storage footprint used by the Table-1 space accounting:
        fixed 8 bytes per numeric/bool cell, string length for text."""
        total = 0
        for values in self.store.columns:
            for value in values:
                if isinstance(value, str):
                    total += len(value)
                else:
                    total += 8
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.schema.name}, rows={self.row_count})"
