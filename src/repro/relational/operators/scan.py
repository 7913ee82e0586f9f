"""Scan operators: sequential, hash-index, and ordered-index scans.

Scans are where batches are born: ``next_batch`` slices the table's
column store directly (zero-copy views for numpy-cached columns) and
attaches a *lowered-text provider* so a ``Contains`` filter sitting
directly above the scan can read lowercased TEXT from the table-level
cache instead of lowering per row.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.relational.column import BATCH_SIZE, Batch, ColumnStore
from repro.relational.database import ExecStats
from repro.relational.expressions import Row, RowLayout
from repro.relational.index import HashIndex, SortedIndex
from repro.relational.operators.base import GroupAware, Operator
from repro.relational.table import Table


def emitted_positions(
    table: Table, columns: Optional[Sequence[str]]
) -> Optional[Tuple[int, ...]]:
    """Schema positions of the columns an access path emits, in schema
    order; None stands for every column (``columns`` is None or names
    them all), which keeps the whole-row fast paths."""
    if columns is None:
        return None
    wanted = {name.lower() for name in columns}
    positions = tuple(
        i for i, c in enumerate(table.schema.columns) if c.name.lower() in wanted
    )
    return None if len(positions) == len(table.schema.columns) else positions


def table_layout(
    table: Table, alias: str, positions: Optional[Sequence[int]] = None
) -> RowLayout:
    columns = table.schema.columns
    if positions is not None:
        columns = [columns[p] for p in positions]
    return RowLayout([(alias, c.name) for c in columns])


def _lowered_provider(
    store: ColumnStore, start: int, stop: int, positions: Optional[Sequence[int]]
) -> Callable[[int], Optional[list]]:
    def get(position: int) -> Optional[list]:
        lowered = store.lowered(position if positions is None else positions[position])
        return None if lowered is None else lowered[start:stop]

    return get


def table_batch(table: Table) -> Batch:
    """The whole table as one batch, without copying a column: what a
    set-at-a-time caller evaluates a predicate over when it wants the
    answer for every row at once (row ``i`` of the batch is heap
    position ``i``)."""
    store = table.store
    columns = []
    for position, values in enumerate(store.columns):
        array = store.array(position)
        columns.append(values if array is None else array)
    return Batch(columns, store.length, lowered=store.lowered)


class SeqScan(Operator):
    """Full scan of a table's heap, emitting ``columns`` (default: all)."""

    def __init__(
        self,
        table: Table,
        alias: str,
        stats: Optional[ExecStats] = None,
        columns: Optional[Sequence[str]] = None,
    ) -> None:
        self.positions = emitted_positions(table, columns)
        super().__init__(table_layout(table, alias, self.positions), stats)
        self.table = table
        self.alias = alias
        self._iter: Optional[Iterator[Row]] = None
        self._cursor = 0

    def open(self) -> None:
        self._iter = self.table.store.iter_rows(self.positions)
        self._cursor = 0

    def next(self) -> Optional[Row]:
        if self._iter is None:
            raise ExecutionError("SeqScan.next() before open()")
        row = next(self._iter, None)
        if row is not None:
            self.stats.rows_scanned += 1
        return row

    def next_batch(self) -> Optional[Batch]:
        if self._iter is None:
            raise ExecutionError("SeqScan.next_batch() before open()")
        store = self.table.store
        start = self._cursor
        if start >= store.length:
            return None
        stop = min(start + BATCH_SIZE, store.length)
        self._cursor = stop
        self.stats.rows_scanned += stop - start
        return Batch(
            store.slice_columns(start, stop, self.positions),
            stop - start,
            lowered=_lowered_provider(store, start, stop, self.positions),
        )

    def close(self) -> None:
        self._iter = None

    def describe(self) -> str:
        return f"SeqScan({self.table.schema.name} AS {self.alias})"


class HashIndexScan(Operator):
    """Probe a hash index with a constant key, emitting ``columns``
    (default: all) of the matching rows."""

    def __init__(
        self,
        table: Table,
        alias: str,
        index: HashIndex,
        key: Any,
        stats: Optional[ExecStats] = None,
        columns: Optional[Sequence[str]] = None,
    ) -> None:
        self.positions = emitted_positions(table, columns)
        super().__init__(table_layout(table, alias, self.positions), stats)
        self.table = table
        self.alias = alias
        self.index = index
        self.key = key
        self._positions: Optional[Iterator[int]] = None
        self._position_list: List[int] = []
        self._batch_done = False

    def open(self) -> None:
        self.stats.index_probes += 1
        self._position_list = self.index.lookup(self.key)
        self._positions = iter(self._position_list)
        self._batch_done = False

    def next(self) -> Optional[Row]:
        if self._positions is None:
            raise ExecutionError("HashIndexScan.next() before open()")
        pos = next(self._positions, None)
        if pos is None:
            return None
        self.stats.rows_scanned += 1
        return self.table.store.row_at(pos, self.positions)

    def next_batch(self) -> Optional[Batch]:
        if self._positions is None:
            raise ExecutionError("HashIndexScan.next_batch() before open()")
        if self._batch_done or not self._position_list:
            return None
        self._batch_done = True
        positions = self._position_list
        self.stats.rows_scanned += len(positions)
        return Batch(
            self.table.store.take_columns(positions, self.positions), len(positions)
        )

    def close(self) -> None:
        self._positions = None

    def describe(self) -> str:
        return f"HashIndexScan({self.table.schema.name} AS {self.alias}, key={self.key!r})"


class OrderedIndexScan(GroupAware):
    """Full scan in sorted-index key order (asc or desc), emitting
    ``columns`` (default: all).

    This is the "idxScan TopoInfo (score order)" leaf of the paper's DGJ
    plans (Figure 15).  It is group-aware with each *key run* — or, when
    ``group_positions`` is given, each distinct combination of those
    table column positions — forming a group; the group key is read
    from the heap, so it need not be among the emitted columns.
    """

    def __init__(
        self,
        table: Table,
        alias: str,
        index: SortedIndex,
        descending: bool = False,
        group_positions: Optional[Sequence[int]] = None,
        stats: Optional[ExecStats] = None,
        columns: Optional[Sequence[str]] = None,
    ) -> None:
        self.positions = emitted_positions(table, columns)
        super().__init__(table_layout(table, alias, self.positions), stats)
        self.table = table
        self.alias = alias
        self.index = index
        self.descending = descending
        self.group_positions = (
            tuple(group_positions) if group_positions is not None else (index.column_position,)
        )
        self._positions: Optional[Iterator[int]] = None
        self._current_group: Any = None
        self._pending: Optional[int] = None

    def _group_at(self, pos: int) -> Any:
        columns = self.table.store.columns
        if len(self.group_positions) == 1:
            return columns[self.group_positions[0]][pos]
        return tuple(columns[p][pos] for p in self.group_positions)

    def open(self) -> None:
        self._positions = self.index.scan(descending=self.descending)
        self._current_group = None
        self._pending = None

    def next(self) -> Optional[Row]:
        if self._positions is None:
            raise ExecutionError("OrderedIndexScan.next() before open()")
        if self._pending is not None:
            pos, self._pending = self._pending, None
        else:
            pos = next(self._positions, None)
            if pos is None:
                return None
        self._current_group = self._group_at(pos)
        self.stats.rows_scanned += 1
        return self.table.store.row_at(pos, self.positions)

    def advance_to_next_group(self) -> None:
        """Skip forward until the group key changes; the first row of the
        next group is buffered for the following ``next()`` call."""
        if self._positions is None:
            raise ExecutionError("advance_to_next_group() before open()")
        self._pending = None
        if self._current_group is None:
            return
        self.stats.groups_skipped += 1
        while True:
            pos = next(self._positions, None)
            if pos is None:
                return
            self.stats.rows_scanned += 1
            if self._group_at(pos) != self._current_group:
                self._pending = pos
                return

    def current_group(self) -> Any:
        return self._current_group

    def close(self) -> None:
        self._positions = None
        self._pending = None

    def describe(self) -> str:
        direction = "desc" if self.descending else "asc"
        key = self.table.schema.columns[self.index.column_position].name
        return (
            f"OrderedIndexScan({self.table.schema.name} AS {self.alias}, "
            f"{key} {direction})"
        )


class RowsSource(Operator):
    """Stream a pre-materialized row list (used for VALUES-like inputs
    and by operators that re-scan a buffered input)."""

    def __init__(self, rows: List[Row], layout: RowLayout, stats: Optional[ExecStats] = None) -> None:
        super().__init__(layout, stats)
        self.rows = rows
        self._iter: Optional[Iterator[Row]] = None
        self._cursor = 0

    def open(self) -> None:
        self._iter = iter(self.rows)
        self._cursor = 0

    def next(self) -> Optional[Row]:
        if self._iter is None:
            raise ExecutionError("RowsSource.next() before open()")
        return next(self._iter, None)

    def next_batch(self) -> Optional[Batch]:
        if self._iter is None:
            raise ExecutionError("RowsSource.next_batch() before open()")
        if self._cursor >= len(self.rows):
            return None
        chunk = self.rows[self._cursor : self._cursor + BATCH_SIZE]
        self._cursor += len(chunk)
        return Batch.from_rows(chunk, self.layout.arity)

    def close(self) -> None:
        self._iter = None

    def describe(self) -> str:
        return f"RowsSource({len(self.rows)} rows)"
