"""Sort, top-N, distinct, union, and limit operators.

Sorting is inherently row-ordered, so the batch path batches the
*drains*: inputs are consumed via ``next_batch`` and the ordered output
is re-emitted in column chunks.  Distinct and limit operate directly on
batches: a batch whose columns are all NaN-free numpy bool/int/float
arrays is deduplicated by one sort kernel at any arity, and only its
first occurrences become tuples; any other batch takes the tuple loop.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.relational.column import (
    BATCH_SIZE,
    HAVE_NUMPY,
    Batch,
    is_ndarray,
    np,
    to_pylist,
)
from repro.relational.database import ExecStats
from repro.relational.expressions import Expression, Row, RowLayout
from repro.relational.operators.base import Operator
from repro.relational.runtime import columnar_enabled

# A sort key: (expression, descending?)
SortKey = Tuple[Expression, bool]


class _OrderWrapper:
    """Total-order wrapper handling mixed sort directions.

    NULLs sort last regardless of direction (a simplification over
    DB2's "NULL is highest"; topology scores are never NULL, so the
    paper's queries cannot observe the difference)."""

    __slots__ = ("values",)

    def __init__(self, values: Tuple[Tuple[bool, Any, bool], ...]) -> None:
        # per key: (is_null, value, descending)
        self.values = values

    def __lt__(self, other: "_OrderWrapper") -> bool:
        for (a_null, a, desc), (b_null, b, _) in zip(self.values, other.values):
            if a_null or b_null:
                if a_null == b_null:
                    continue
                return b_null  # non-null sorts before null in asc terms
            if a == b:
                continue
            return (a > b) if desc else (a < b)
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _OrderWrapper):
            return NotImplemented
        return all(
            a_null == b_null and (a_null or a == b)
            for (a_null, a, _), (b_null, b, _) in zip(self.values, other.values)
        )

    def __hash__(self) -> int:  # pragma: no cover - wrappers are transient
        return hash(tuple((n, v) for n, v, _ in self.values))


def _make_sort_key(keys: Sequence[SortKey], layout: RowLayout):
    fns = [(expr.bind(layout), desc) for expr, desc in keys]

    def key(row: Row) -> _OrderWrapper:
        values = []
        for fn, desc in fns:
            v = fn(row)
            values.append((v is None, v, desc))
        return _OrderWrapper(tuple(values))

    return key


def _drain_concat(child: Operator, arity: int) -> Batch:
    """Open, drain via ``next_batch``, close; all rows as ONE batch.

    Column-wise concatenation: a position stays numpy-backed only when
    every input chunk is (scan-fresh chunks are consistently one kind,
    but a union of heterogeneous children may mix)."""
    pieces: List[Batch] = []
    child.open()
    try:
        while True:
            batch = child.next_batch()
            if batch is None:
                break
            if batch.length:
                pieces.append(batch)
    finally:
        child.close()
    if not pieces:
        return Batch([[] for _ in range(arity)], 0)
    if len(pieces) == 1:
        return pieces[0]
    columns = []
    for position in range(arity):
        parts = [piece.columns[position] for piece in pieces]
        if HAVE_NUMPY and all(is_ndarray(p) for p in parts):
            columns.append(np.concatenate(parts))
        else:
            merged: list = []
            for p in parts:
                merged.extend(to_pylist(p))
            columns.append(merged)
    return Batch(columns, sum(piece.length for piece in pieces))


def _numeric_key_vector(values: list, desc: bool):
    """``values`` as an ascending-comparable key list, or None."""
    for v in values:
        t = type(v)
        if t is not int and t is not float and t is not bool:
            return None
        if v != v:  # NaN: comparison sorts are unspecified on it
            return None
    return [-v for v in values] if desc else values


def _fast_order(keys: Sequence[SortKey], layout: RowLayout, batch: Batch):
    """Stable ordering permutation identical to sorting with
    ``_OrderWrapper`` keys, computed columnar — or None when identity
    cannot be proven and the caller must fall back to the wrapper.

    Eligible keys contain no NULL/unknown and no NaN, and are either
    all-numeric (bool/int/float; DESC is handled by negation, which is
    exact for Python ints and order-reversing for finite floats) or
    all-``str`` ascending.  Equal keys preserve input order in both
    paths (Python sorts and numpy's stable argsort/lexsort), so the
    permutation matches the row engine's stable wrapper sort even on
    ties."""
    vectors = []
    all_np = HAVE_NUMPY
    for expr, desc in keys:
        values = expr.bind_batch(layout)(batch)
        if values.kind == "np":
            arr = values.data
            if arr.dtype.kind == "f" and bool(np.isnan(arr).any()):
                return None
            if desc:
                if arr.dtype.kind == "b":
                    arr = np.logical_not(arr)
                elif arr.dtype.kind == "i":
                    if arr.size and int(arr.min()) == np.iinfo(arr.dtype).min:
                        return None  # negation would overflow
                    arr = -arr
                else:
                    arr = -arr
            vectors.append(arr)
            continue
        all_np = False
        plain = values.pylist()
        vector = _numeric_key_vector(plain, desc)
        if vector is None:
            if desc or not all(type(v) is str for v in plain):
                return None
            vector = plain
        vectors.append(vector)
    if all_np:
        if len(vectors) == 1:
            return np.argsort(vectors[0], kind="stable")
        return np.lexsort(tuple(reversed(vectors)))
    lists = [to_pylist(v) if is_ndarray(v) else v for v in vectors]
    if len(lists) == 1:
        key_of = lists[0]
    else:
        key_of = list(zip(*lists))
    return sorted(range(batch.length), key=key_of.__getitem__)


def _first_occurrences(columns: Sequence[Any]):
    """Input positions of the first occurrence of each distinct row,
    ascending — or None unless every column is a numpy bool/int/float
    array without NaN (within one such column numpy ``!=`` and Python
    ``==`` agree, ``-0.0 == 0.0`` included)."""
    if not columns or not all(
        is_ndarray(col)
        and col.dtype.kind in "biuf"
        and not (col.dtype.kind == "f" and bool(np.isnan(col).any()))
        for col in columns
    ):
        return None
    if len(columns) == 1:
        order = np.argsort(columns[0], kind="stable")
    else:
        order = np.lexsort(tuple(reversed(columns)))
    boundary = np.zeros(len(order), dtype=bool)
    boundary[:1] = True
    for col in columns:
        ordered = col[order]
        boundary[1:] |= ordered[1:] != ordered[:-1]
    return np.sort(order[boundary])


class Sort(Operator):
    """Full materializing sort."""

    def __init__(self, child: Operator, keys: Sequence[SortKey]) -> None:
        super().__init__(child.layout, child.stats)
        self.child = child
        self.keys = list(keys)
        self._key_fn = _make_sort_key(self.keys, child.layout)
        self._iter: Optional[Iterator[Row]] = None
        self._rows: Optional[List[Row]] = None
        self._cursor = 0

    def open(self) -> None:
        if columnar_enabled():
            batch = _drain_concat(self.child, self.layout.arity)
            order = _fast_order(self.keys, self.child.layout, batch)
            if order is not None:
                rows = batch.take(order).to_rows()
            else:
                rows = batch.to_rows()
                rows.sort(key=self._key_fn)
        else:
            rows = list(self.child)
            rows.sort(key=self._key_fn)
        self._rows = rows
        self._iter = iter(rows)
        self._cursor = 0

    def next(self) -> Optional[Row]:
        if self._iter is None:
            raise ExecutionError("Sort.next() before open()")
        return next(self._iter, None)

    def next_batch(self) -> Optional[Batch]:
        if self._rows is None:
            raise ExecutionError("Sort.next_batch() before open()")
        if self._cursor >= len(self._rows):
            return None
        chunk = self._rows[self._cursor : self._cursor + BATCH_SIZE]
        self._cursor += len(chunk)
        return Batch.from_rows(chunk, self.layout.arity)

    def close(self) -> None:
        self._iter = None
        self._rows = None

    def describe(self) -> str:
        return f"Sort({len(self.keys)} keys)"

    def children(self) -> List[Operator]:
        return [self.child]


class TopN(Operator):
    """Heap-based ORDER BY ... FETCH FIRST n ROWS ONLY."""

    def __init__(self, child: Operator, keys: Sequence[SortKey], n: int) -> None:
        if n < 0:
            raise ExecutionError("TopN needs n >= 0")
        super().__init__(child.layout, child.stats)
        self.child = child
        self.keys = list(keys)
        self.n = n
        self._key_fn = _make_sort_key(self.keys, child.layout)
        self._iter: Optional[Iterator[Row]] = None
        self._rows: Optional[List[Row]] = None
        self._cursor = 0

    def open(self) -> None:
        self._cursor = 0
        if self.n == 0:
            self._rows = []
            self._iter = iter(())
            return
        if columnar_enabled():
            batch = _drain_concat(self.child, self.layout.arity)
            order = _fast_order(self.keys, self.child.layout, batch)
            if order is not None:
                # nsmallest keyed on (key, input index) is exactly the
                # first n of the stable ascending sort.
                self._rows = batch.take(list(order[: self.n])).to_rows()
                self._iter = iter(self._rows)
                return
            rows = batch.to_rows()
        else:
            rows = list(self.child)
        counter = itertools.count()
        decorated = [(self._key_fn(row), next(counter), row) for row in rows]
        smallest = heapq.nsmallest(self.n, decorated, key=lambda t: (t[0], t[1]))
        self._rows = [row for _, _, row in smallest]
        self._iter = iter(self._rows)

    def next(self) -> Optional[Row]:
        if self._iter is None:
            raise ExecutionError("TopN.next() before open()")
        return next(self._iter, None)

    def next_batch(self) -> Optional[Batch]:
        if self._rows is None:
            raise ExecutionError("TopN.next_batch() before open()")
        if self._cursor >= len(self._rows):
            return None
        chunk = self._rows[self._cursor : self._cursor + BATCH_SIZE]
        self._cursor += len(chunk)
        return Batch.from_rows(chunk, self.layout.arity)

    def close(self) -> None:
        self._iter = None
        self._rows = None

    def describe(self) -> str:
        return f"TopN(n={self.n})"

    def children(self) -> List[Operator]:
        return [self.child]


class Distinct(Operator):
    """Duplicate elimination on the whole row (hash-based, preserves
    first-seen order).  ``seen`` holds row tuples on every path, so one
    execution may mix numpy and list-backed batches (a ``UnionAll``)."""

    def __init__(self, child: Operator) -> None:
        super().__init__(child.layout, child.stats)
        self.child = child
        self._seen: Optional[set] = None

    def open(self) -> None:
        self.child.open()
        self._seen = set()

    def next(self) -> Optional[Row]:
        if self._seen is None:
            raise ExecutionError("Distinct.next() before open()")
        while True:
            row = self.child.next()
            if row is None:
                return None
            if row not in self._seen:
                self._seen.add(row)
                return row

    def next_batch(self) -> Optional[Batch]:
        if self._seen is None:
            raise ExecutionError("Distinct.next_batch() before open()")
        seen = self._seen
        while True:
            batch = self.child.next_batch()
            if batch is None:
                return None
            first = _first_occurrences(batch.columns)
            if first is not None:
                rows = list(zip(*(col[first].tolist() for col in batch.columns)))
                fresh_at = [i for i, row in zip(first.tolist(), rows) if row not in seen]
                seen.update(rows)
                if not fresh_at:
                    continue
                if len(fresh_at) == batch.length:
                    return batch
                return batch.take(fresh_at)
            keep: List[bool] = []
            fresh = 0
            for row in batch.to_rows():
                if row in seen:
                    keep.append(False)
                else:
                    seen.add(row)
                    keep.append(True)
                    fresh += 1
            if fresh == 0:
                continue
            if fresh == batch.length:
                return batch
            return batch.compact(keep, fresh)

    def close(self) -> None:
        self.child.close()
        self._seen = None

    def describe(self) -> str:
        return "Distinct"

    def children(self) -> List[Operator]:
        return [self.child]


class UnionAll(Operator):
    """Concatenate children (arity-checked); output layout is the first
    child's."""

    def __init__(self, children: Sequence[Operator]) -> None:
        if not children:
            raise ExecutionError("UnionAll needs at least one input")
        arity = children[0].layout.arity
        for child in children[1:]:
            if child.layout.arity != arity:
                raise ExecutionError("UNION inputs must have equal arity")
        super().__init__(children[0].layout, children[0].stats)
        self._children = list(children)
        self._current = 0
        self._opened = False

    def open(self) -> None:
        self._current = 0
        self._children[0].open()
        self._opened = True

    def next(self) -> Optional[Row]:
        if not self._opened:
            raise ExecutionError("UnionAll.next() before open()")
        while self._current < len(self._children):
            row = self._children[self._current].next()
            if row is not None:
                return row
            self._children[self._current].close()
            self._current += 1
            if self._current < len(self._children):
                self._children[self._current].open()
        return None

    def next_batch(self) -> Optional[Batch]:
        if not self._opened:
            raise ExecutionError("UnionAll.next_batch() before open()")
        while self._current < len(self._children):
            batch = self._children[self._current].next_batch()
            if batch is not None:
                return batch
            self._children[self._current].close()
            self._current += 1
            if self._current < len(self._children):
                self._children[self._current].open()
        return None

    def close(self) -> None:
        if self._opened and self._current < len(self._children):
            self._children[self._current].close()
        self._opened = False

    def describe(self) -> str:
        return f"UnionAll({len(self._children)} inputs)"

    def children(self) -> List[Operator]:
        return list(self._children)


# Below this cutoff ``Limit.next_batch`` pulls single rows from its
# child instead of whole batches.  A batch pipeline drains BATCH_SIZE
# rows through every operator before a LIMIT can stop it, so a tiny
# LIMIT over a streaming subtree pays for thousands of rows it then
# discards (the topology layer's EXISTS-style ``LIMIT 1`` probes are
# the extreme case).  Row-pulling propagates early termination down the
# whole streaming spine, while blocking operators underneath (Sort,
# TopN, hash builds) still materialize vectorized inside ``open()``.
LIMIT_ROW_PULL_MAX = 64


class Limit(Operator):
    """FETCH FIRST n ROWS ONLY without ordering.

    In batch mode a small ``n`` (<= ``LIMIT_ROW_PULL_MAX``) switches to
    the row protocol internally — see :data:`LIMIT_ROW_PULL_MAX`.  The
    child sees exactly one protocol per execution either way, so
    operators with protocol-specific internal state never observe a mix.
    """

    def __init__(self, child: Operator, n: int) -> None:
        if n < 0:
            raise ExecutionError("Limit needs n >= 0")
        super().__init__(child.layout, child.stats)
        self.child = child
        self.n = n
        self._emitted = 0

    def open(self) -> None:
        self.child.open()
        self._emitted = 0

    def next(self) -> Optional[Row]:
        if self._emitted >= self.n:
            return None
        row = self.child.next()
        if row is None:
            return None
        self._emitted += 1
        return row

    def next_batch(self) -> Optional[Batch]:
        if self._emitted >= self.n:
            return None
        if self.n <= LIMIT_ROW_PULL_MAX:
            rows = []
            while self._emitted < self.n:
                row = self.child.next()
                if row is None:
                    break
                rows.append(row)
                self._emitted += 1
            if not rows:
                return None
            return Batch.from_rows(rows, self.layout.arity)
        batch = self.child.next_batch()
        if batch is None:
            return None
        remaining = self.n - self._emitted
        if batch.length <= remaining:
            self._emitted += batch.length
            return batch
        self._emitted = self.n
        return Batch([col[:remaining] for col in batch.columns], remaining)

    def close(self) -> None:
        self.child.close()

    def describe(self) -> str:
        return f"Limit(n={self.n})"

    def children(self) -> List[Operator]:
        return [self.child]
