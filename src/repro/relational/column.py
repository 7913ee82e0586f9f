"""Columnar building blocks: column vectors and row batches.

Tables store their data as an array of columns (:class:`ColumnStore`):
one plain Python list per column as the authoritative representation,
plus two lazily-built caches per column where they pay off —

* a numpy array (INT/FLOAT/BOOL columns with no NULLs), used by the
  vectorized expression paths and sliced zero-copy into scan batches;
* a lowercased copy of TEXT columns, used by the vectorized ``CONTAINS``
  predicate (the paper's ``desc.ct('kw')``), whose per-row
  ``str.lower()`` otherwise dominates keyword scans.

numpy is strictly optional: when it is not installed (or disabled via
``REPRO_NO_NUMPY=1``) every path falls back to the list representation
with identical results — the differential harness runs in both
configurations.

The authoritative values are always the Python objects the schema
validated: anything that leaves the columnar domain (row tuples, digest
input, snapshot rows) is converted back via ``ndarray.tolist()``, so no
numpy scalar ever leaks into results, hashes, or ``repr`` output.

A :class:`Batch` is a horizontal slice of an operator's output: one
column per :class:`~repro.relational.expressions.RowLayout` entry, each
either a Python list or a numpy array.  Invariant: a numpy-backed batch
column never contains NULLs (it can only originate from a NULL-free
table column).
"""

from __future__ import annotations

import os
from itertools import compress
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from repro.relational.types import DataType

if os.environ.get("REPRO_NO_NUMPY", "") not in ("", "0"):
    np = None  # type: ignore[assignment]
else:
    try:
        import numpy as np  # type: ignore[import-not-found]
    except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
        np = None  # type: ignore[assignment]

HAVE_NUMPY = np is not None

#: Rows per batch.  Large enough that per-batch Python overhead is
#: negligible, small enough that intermediate batches stay cache-sized.
BATCH_SIZE = 4096

_NUMPY_DTYPES = {DataType.INT: "int64", DataType.FLOAT: "float64", DataType.BOOL: "bool"}

ColumnValues = Union[list, "np.ndarray"]


def is_ndarray(values: Any) -> bool:
    return HAVE_NUMPY and isinstance(values, np.ndarray)


def to_pylist(values: ColumnValues) -> list:
    """A Python list of Python scalars (identity for list columns)."""
    if is_ndarray(values):
        return values.tolist()
    return values


def take_columns(columns: Sequence[ColumnValues], indices: Sequence[int]) -> List[ColumnValues]:
    """Gather ``values[i]`` for each index out of every column, each
    staying numpy-backed when it is.  ``indices`` — a list of ints or an
    int array — is converted at most once per representation: to an
    int64 array for the numpy-backed columns, to a list of Python ints
    for the list ones (iterating an array yields numpy scalars, three
    times slower as list subscripts)."""
    as_array = as_list = None
    out: List[ColumnValues] = []
    for values in columns:
        if is_ndarray(values):
            if as_array is None:
                as_array = np.asarray(indices, dtype="int64")
            out.append(values[as_array])
        else:
            if as_list is None:
                as_list = to_pylist(indices)
            out.append([values[i] for i in as_list])
    return out


def compact_column(values: ColumnValues, keep: ColumnValues) -> ColumnValues:
    """Keep the entries whose ``keep`` flag is true.  ``keep`` is a bool
    list or a numpy bool array of the same length."""
    if is_ndarray(values):
        if is_ndarray(keep):
            return values[keep]
        return values[np.asarray(keep, dtype=bool)]
    if is_ndarray(keep):
        keep = keep.tolist()
    return list(compress(values, keep))


class Batch:
    """A slice of rows in column-major form.

    ``lowered`` optionally maps a column position to a lowercased copy
    of that (TEXT) column, provided by table scans from the table-level
    cache.  It is only propagated while row alignment with the source
    table is preserved (i.e. on scan-fresh batches); any compaction or
    join drops it.
    """

    __slots__ = ("columns", "length", "lowered")

    def __init__(
        self,
        columns: List[ColumnValues],
        length: int,
        lowered: Optional[Callable[[int], Optional[list]]] = None,
    ) -> None:
        self.columns = columns
        self.length = length
        self.lowered = lowered

    @classmethod
    def from_rows(cls, rows: Sequence[Tuple[Any, ...]], arity: int) -> "Batch":
        if not rows:
            return cls([[] for _ in range(arity)], 0)
        return cls([list(col) for col in zip(*rows)], len(rows))

    @classmethod
    def concat(cls, batches: Sequence["Batch"], arity: int) -> "Batch":
        """All rows of ``batches`` as one batch.  A column stays
        numpy-backed only when every piece is an array of one dtype
        (joining bool with int64 would turn ``True`` into ``1``)."""
        if not batches:
            return cls([[] for _ in range(arity)], 0)
        if len(batches) == 1:
            return batches[0]
        columns: List[ColumnValues] = []
        for pieces in zip(*(batch.columns for batch in batches)):
            if all(is_ndarray(p) for p in pieces) and len({p.dtype for p in pieces}) == 1:
                columns.append(np.concatenate(pieces))
            else:
                columns.append([v for piece in pieces for v in to_pylist(piece)])
        return cls(columns, sum(batch.length for batch in batches))

    def to_rows(self) -> List[Tuple[Any, ...]]:
        """Materialize row tuples of plain Python values."""
        if not self.columns:
            return [()] * self.length
        if self.length == 0:
            return []
        return list(zip(*(to_pylist(col) for col in self.columns)))

    def compact(self, keep: ColumnValues, kept: int) -> "Batch":
        """A new batch with only the rows whose ``keep`` flag is true
        (``kept`` is their count, pre-computed by the caller)."""
        return Batch([compact_column(col, keep) for col in self.columns], kept)

    def take(self, indices: Sequence[int]) -> "Batch":
        return Batch(take_columns(self.columns, indices), len(indices))

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Batch({len(self.columns)} cols x {self.length} rows)"


class ColumnStore:
    """Array-of-columns storage for one table.

    Appends go to the per-column Python lists; the numpy and lowercase
    caches are invalidated on any append and rebuilt lazily on next use
    (the workload is bulk-load-then-query, so rebuilds are rare).
    """

    __slots__ = ("dtypes", "columns", "length", "version", "_arrays", "_lowered")

    _UNSET = object()

    def __init__(self, dtypes: Sequence[DataType]) -> None:
        self.dtypes: Tuple[DataType, ...] = tuple(dtypes)
        self.columns: List[list] = [[] for _ in self.dtypes]
        self.length = 0
        #: Bumped on every data change; consumed by the SQL engine's
        #: prepared-statement cache invalidation.
        self.version = 0
        self._arrays: List[Any] = [self._UNSET] * len(self.dtypes)
        self._lowered: List[Any] = [self._UNSET] * len(self.dtypes)

    # -- Mutation ----------------------------------------------------------
    def append_row(self, row: Sequence[Any]) -> None:
        for column, value in zip(self.columns, row):
            column.append(value)
        self.length += 1
        self._invalidate()

    def extend_rows(self, rows) -> int:
        """Append many rows (any iterable of sequences); returns count."""
        before = self.length
        columns = self.columns
        for row in rows:
            for column, value in zip(columns, row):
                column.append(value)
            self.length += 1
        self._invalidate()
        return self.length - before

    def _invalidate(self) -> None:
        self.version += 1
        for i in range(len(self._arrays)):
            self._arrays[i] = self._UNSET
            self._lowered[i] = self._UNSET

    # -- Caches ------------------------------------------------------------
    def array(self, position: int) -> Optional["np.ndarray"]:
        """The numpy array for a column, or None when not representable
        (numpy absent, TEXT column, NULLs present, or int64 overflow)."""
        cached = self._arrays[position]
        if cached is not self._UNSET:
            return cached
        array = None
        dtype = _NUMPY_DTYPES.get(self.dtypes[position]) if HAVE_NUMPY else None
        if dtype is not None:
            values = self.columns[position]
            if not any(v is None for v in values):
                try:
                    array = np.array(values, dtype=dtype)
                except (OverflowError, TypeError, ValueError):
                    array = None
        self._arrays[position] = array
        return array

    def lowered(self, position: int) -> Optional[list]:
        """Lowercased copy of a TEXT column (None entries preserved), or
        None for non-TEXT columns."""
        cached = self._lowered[position]
        if cached is not self._UNSET:
            return cached
        lowered = None
        if self.dtypes[position] is DataType.TEXT:
            lowered = [v if v is None else v.lower() for v in self.columns[position]]
        self._lowered[position] = lowered
        return lowered

    # -- Access ------------------------------------------------------------
    def column_values(self, position: int) -> list:
        return self.columns[position]

    def slice_columns(
        self, start: int, stop: int, positions: Optional[Sequence[int]] = None
    ) -> List[ColumnValues]:
        """One batch worth of columns (all of them, or those at
        ``positions``); numpy-backed columns are sliced as (zero-copy)
        array views."""
        out: List[ColumnValues] = []
        for position in range(len(self.columns)) if positions is None else positions:
            array = self.array(position)
            if array is not None:
                out.append(array[start:stop])
            else:
                out.append(self.columns[position][start:stop])
        return out

    def take_columns(
        self, rows: Sequence[int], positions: Optional[Sequence[int]] = None
    ) -> List[ColumnValues]:
        """Gather the given rows (a list of heap positions or an int
        array) as one batch worth of columns (all of them, or those at
        ``positions``); numpy-cached columns gather via fancy indexing."""
        columns: List[ColumnValues] = []
        for position in range(len(self.columns)) if positions is None else positions:
            array = self.array(position)
            columns.append(self.columns[position] if array is None else array)
        return take_columns(columns, rows)

    def row_at(
        self, position: int, positions: Optional[Sequence[int]] = None
    ) -> Tuple[Any, ...]:
        """One row as a tuple — of every column, or of those at
        ``positions``."""
        if positions is None:
            return tuple(column[position] for column in self.columns)
        columns = self.columns
        return tuple(columns[p][position] for p in positions)

    def iter_rows(self, positions: Optional[Sequence[int]] = None):
        if positions is None:
            return zip(*self.columns) if self.columns else iter(())
        if not positions:
            return iter([()] * self.length)
        return zip(*(self.columns[p] for p in positions))


class RowsView(Sequence):
    """Row-facing adapter over a :class:`ColumnStore`.

    Presents the pre-refactor ``Table.rows`` contract — ``len``,
    iteration, integer/slice indexing, equality — while the storage
    underneath is columnar.  Tuples are built on demand; iteration goes
    through one C-level ``zip`` over the columns.
    """

    __slots__ = ("_store",)

    def __init__(self, store: ColumnStore) -> None:
        self._store = store

    def __len__(self) -> int:
        return self._store.length

    def __iter__(self):
        return self._store.iter_rows()

    def __getitem__(self, item):
        if isinstance(item, slice):
            columns = [col[item] for col in self._store.columns]
            return [tuple(row) for row in zip(*columns)] if columns else []
        return self._store.row_at(
            item if item >= 0 else self._store.length + item
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RowsView):
            return self._store.columns == other._store.columns
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RowsView({len(self)} rows)"
