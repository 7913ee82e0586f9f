"""Regular join operators: hash join, index nested-loops, block
nested-loops, and sort-merge — the System-R repertoire the optimizer
enumerates (Section 5.4.1).

Batch paths: the hash and index joins probe per *outer batch* through
one function, :func:`probe_pairs`, which yields the matching (outer
position, inner position) pairs — from the sorted-key kernel
(:class:`~repro.relational.index.CsrKeys`) when the outer key is one
int/bool array column, from the per-key loop otherwise — and assemble
the combined batch with one column gather per side.  Build order, probe
order, and residual filtering mirror the row engine exactly, so emission
order is identical.  Nested-loops stays row-at-a-time (it is the rare
theta-join fallback); sort-merge materializes anyway, so only its input
drains are batched.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.relational.column import (
    Batch,
    is_ndarray,
    np,
    take_columns,
    to_pylist,
)
from repro.relational.database import ExecStats
from repro.relational.expressions import Expression, Row, RowLayout, is_truthy
from repro.relational.index import CsrKeys, HashIndex, is_null_key
from repro.relational.operators.base import Operator
from repro.relational.operators.scan import emitted_positions, table_layout
from repro.relational.runtime import columnar_enabled
from repro.relational.table import Table

# Outer batches shorter than this probe key by key.  The kernel answers
# a batch with a dozen array operations whatever its length, which a
# handful of dict lookups undercuts (the one-row outer of a point query
# is the extreme case) — the join-side sibling of
# ``sort.LIMIT_ROW_PULL_MAX``: the path follows from the size of the
# work at hand, never from an option.
ARRAY_PROBE_MIN_ROWS = 32

_UNSET = object()


def _key_fn(positions: Sequence[int]):
    if len(positions) == 1:
        p = positions[0]
        return lambda row: row[p]
    ps = tuple(positions)
    return lambda row: tuple(row[p] for p in ps)


def _equi_keys(join) -> str:
    """``alias.column = alias.column`` per key pair of a two-input
    equi-join, named from its children's layouts (``describe``)."""
    left, right = join.left.layout.entries, join.right.layout.entries
    return ", ".join(
        f"{'.'.join(left[l])} = {'.'.join(right[r])}"
        for l, r in zip(join.left_key_positions, join.right_key_positions)
    )


def _residual(residual: Optional[Expression]) -> str:
    return f", residual {residual!r}" if residual is not None else ""


def _batch_keys(batch: Batch, positions: Sequence[int]) -> list:
    """Join-key values per batch row, as plain Python scalars/tuples."""
    if len(positions) == 1:
        return to_pylist(batch.columns[positions[0]])
    key_columns = [to_pylist(batch.columns[p]) for p in positions]
    return list(zip(*key_columns))


def probe_pairs(batch: Batch, key_positions: Sequence[int], inner) -> Tuple[Any, Any]:
    """(outer position, inner position) of every equi-join match of an
    outer batch, as two parallel sequences in outer order, then the
    inner's insertion order.

    ``inner`` is a :class:`~repro.relational.index.HashIndex` or a
    :class:`_BuildSide`: ``key_arrays()`` is its sorted-key kernel (or
    None), ``buckets()`` its dict of key -> inner positions.  The kernel
    takes a batch whose key is a single int/bool array column of at
    least ``ARRAY_PROBE_MIN_ROWS`` rows; everything else — TEXT, FLOAT,
    NULL-bearing (hence list-backed) and composite keys, an inner that
    has no key arrays — goes through the per-key loop, with the same
    pairs in the same order.  NULL never joins."""
    if len(key_positions) == 1 and batch.length >= ARRAY_PROBE_MIN_ROWS:
        keys = batch.columns[key_positions[0]]
        if is_ndarray(keys) and keys.dtype.kind in "ib":
            view = inner.key_arrays()
            if view is not None:
                return view.probe(keys)
    outer_positions: List[int] = []
    inner_positions: List[int] = []
    lookup = inner.buckets().get
    for i, key in enumerate(_batch_keys(batch, key_positions)):
        bucket = lookup(key)
        if bucket and not is_null_key(key):
            if len(bucket) == 1:
                outer_positions.append(i)
                inner_positions.append(bucket[0])
            else:
                outer_positions.extend([i] * len(bucket))
                inner_positions.extend(bucket)
    return outer_positions, inner_positions


class _BuildSide:
    """A hash join's materialized inner input, probed like a
    :class:`~repro.relational.index.HashIndex`: ``key_arrays`` /
    ``buckets`` answer with *ordinals* of its rows.

    Columnar executions hand it the drained input as one batch and it
    stays columns: the kernel is built from the key column itself, and
    the dict of buckets and the row tuples only if the per-key loop or
    the row protocol ask for them.  Row-mode executions hand it rows.
    """

    def __init__(
        self,
        key_positions: Sequence[int],
        batch: Optional[Batch] = None,
        rows: Optional[List[Row]] = None,
    ) -> None:
        self.key_positions = tuple(key_positions)
        self.batch = batch
        self._rows = rows
        self._buckets: Optional[Dict[Any, List[int]]] = None
        self._csr: Any = _UNSET

    @property
    def rows(self) -> List[Row]:
        if self._rows is None:
            self._rows = self.batch.to_rows()
        return self._rows

    def key_arrays(self) -> Optional[CsrKeys]:
        if self._csr is _UNSET:
            self._csr = None
            if self.batch is not None and len(self.key_positions) == 1:
                keys = self.batch.columns[self.key_positions[0]]
                if is_ndarray(keys) and keys.dtype.kind in "ib":
                    self._csr = CsrKeys(keys.astype("int64", copy=False))
        return self._csr

    def buckets(self) -> Dict[Any, List[int]]:
        buckets = self._buckets
        if buckets is None:
            buckets = self._buckets = {}
            if self.batch is not None:
                keys = _batch_keys(self.batch, self.key_positions)
            else:
                keys = map(_key_fn(self.key_positions), self._rows)
            for ordinal, key in enumerate(keys):
                if not is_null_key(key):  # NULL never joins
                    buckets.setdefault(key, []).append(ordinal)
        return buckets


def _build_side(right: Operator, key_positions: Sequence[int]) -> _BuildSide:
    if columnar_enabled():
        return _BuildSide(key_positions, batch=right.drain_batch())
    return _BuildSide(key_positions, rows=list(right))


def _apply_residual(batch: Batch, batch_fn) -> Optional[Batch]:
    """Filter a joined batch by the residual predicate; None if nothing
    survives."""
    result = batch_fn(batch)
    if result.kind == "const":
        return batch if result.data is True else None
    keep = result.as_keep()
    kept = sum(keep) if isinstance(keep, list) else int(keep.sum())
    if kept == 0:
        return None
    if kept == batch.length:
        return batch
    return batch.compact(keep, kept)


class HashJoin(Operator):
    """Equi-join: build a hash table on the right (inner) input, probe
    with the left (outer) input.  Preserves outer order."""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_key_positions: Sequence[int],
        right_key_positions: Sequence[int],
        residual: Optional[Expression] = None,
    ) -> None:
        if len(left_key_positions) != len(right_key_positions):
            raise ExecutionError("join key arity mismatch")
        super().__init__(left.layout.concat(right.layout), left.stats)
        self.left = left
        self.right = right
        self.left_key_positions = tuple(left_key_positions)
        self.right_key_positions = tuple(right_key_positions)
        self.left_key = _key_fn(left_key_positions)
        self.residual = residual
        self._residual_fn = residual.bind(self.layout) if residual is not None else None
        self._residual_batch_fn = (
            residual.bind_batch(self.layout) if residual is not None else None
        )
        self._build: Optional[_BuildSide] = None
        self._matches: Optional[Iterator[int]] = None
        self._outer_row: Optional[Row] = None

    def open(self) -> None:
        self._build = _build_side(self.right, self.right_key_positions)
        self.left.open()
        self._matches = None
        self._outer_row = None

    def next(self) -> Optional[Row]:
        if self._build is None:
            raise ExecutionError("HashJoin.next() before open()")
        build = self._build
        while True:
            if self._matches is not None:
                ordinal = next(self._matches, None)
                if ordinal is not None:
                    combined = self._outer_row + build.rows[ordinal]
                    if self._residual_fn is not None and not is_truthy(
                        self._residual_fn(combined)
                    ):
                        continue
                    self.stats.rows_joined += 1
                    return combined
                self._matches = None
            outer = self.left.next()
            if outer is None:
                return None
            bucket = build.buckets().get(self.left_key(outer))
            if bucket:
                self._outer_row = outer
                self._matches = iter(bucket)

    def next_batch(self) -> Optional[Batch]:
        if self._build is None:
            raise ExecutionError("HashJoin.next_batch() before open()")
        build = self._build
        while True:
            batch = self.left.next_batch()
            if batch is None:
                return None
            outer_at, inner_at = probe_pairs(batch, self.left_key_positions, build)
            if not len(outer_at):
                continue
            combined = Batch(
                take_columns(batch.columns, outer_at)
                + take_columns(build.batch.columns, inner_at),
                len(outer_at),
            )
            if self._residual_batch_fn is not None:
                combined = _apply_residual(combined, self._residual_batch_fn)
                if combined is None:
                    continue
            self.stats.rows_joined += combined.length
            return combined

    def close(self) -> None:
        self.left.close()
        self._build = None
        self._matches = None

    def describe(self) -> str:
        return f"HashJoin({_equi_keys(self)}{_residual(self.residual)})"

    def children(self) -> List[Operator]:
        return [self.left, self.right]


class IndexNestedLoopJoin(Operator):
    """For each outer row, probe a hash index on the inner *table*,
    emitting ``columns`` (default: all) of the matching inner rows.

    Preserves outer order; this is the regular (non-group-aware) sibling
    of the paper's IDGJ operator.
    """

    def __init__(
        self,
        outer: Operator,
        table: Table,
        alias: str,
        index: HashIndex,
        outer_key_positions: Sequence[int],
        residual: Optional[Expression] = None,
        columns: Optional[Sequence[str]] = None,
    ) -> None:
        self.inner_positions = emitted_positions(table, columns)
        super().__init__(
            outer.layout.concat(table_layout(table, alias, self.inner_positions)),
            outer.stats,
        )
        self.outer = outer
        self.table = table
        self.alias = alias
        self.index = index
        self.outer_key_positions = tuple(outer_key_positions)
        self.outer_key = _key_fn(outer_key_positions)
        self.residual = residual
        self._residual_fn = residual.bind(self.layout) if residual is not None else None
        self._residual_batch_fn = (
            residual.bind_batch(self.layout) if residual is not None else None
        )
        self._matches: Optional[Iterator[int]] = None
        self._outer_row: Optional[Row] = None
        self._opened = False

    def open(self) -> None:
        self.outer.open()
        self._matches = None
        self._outer_row = None
        self._opened = True

    def next(self) -> Optional[Row]:
        if not self._opened:
            raise ExecutionError("IndexNestedLoopJoin.next() before open()")
        store = self.table.store
        while True:
            if self._matches is not None:
                pos = next(self._matches, None)
                if pos is not None:
                    combined = self._outer_row + store.row_at(pos, self.inner_positions)
                    if self._residual_fn is not None and not is_truthy(
                        self._residual_fn(combined)
                    ):
                        continue
                    self.stats.rows_joined += 1
                    return combined
                self._matches = None
            outer = self.outer.next()
            if outer is None:
                return None
            self.stats.index_probes += 1
            self._outer_row = outer
            self._matches = iter(self.index.lookup(self.outer_key(outer)))

    def next_batch(self) -> Optional[Batch]:
        if not self._opened:
            raise ExecutionError("IndexNestedLoopJoin.next_batch() before open()")
        while True:
            batch = self.outer.next_batch()
            if batch is None:
                return None
            self.stats.index_probes += batch.length
            outer_at, inner_at = probe_pairs(batch, self.outer_key_positions, self.index)
            if not len(outer_at):
                continue
            combined = Batch(
                take_columns(batch.columns, outer_at)
                + self.table.store.take_columns(inner_at, self.inner_positions),
                len(outer_at),
            )
            if self._residual_batch_fn is not None:
                combined = _apply_residual(combined, self._residual_batch_fn)
                if combined is None:
                    continue
            self.stats.rows_joined += combined.length
            return combined

    def close(self) -> None:
        self.outer.close()
        self._matches = None
        self._opened = False

    def describe(self) -> str:
        outer, columns = self.outer.layout.entries, self.table.schema.columns
        keys = ", ".join(
            f"{'.'.join(outer[o])} = {self.alias}.{columns[i].name}".lower()
            for o, i in zip(self.outer_key_positions, self.index.column_positions)
        )
        return (
            f"IndexNestedLoopJoin({self.table.schema.name} AS {self.alias}, "
            f"{keys}{_residual(self.residual)})"
        )

    def children(self) -> List[Operator]:
        return [self.outer]


class NestedLoopJoin(Operator):
    """Block nested-loops over a materialized inner input with an
    arbitrary (theta) predicate.  The fallback join."""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        predicate: Optional[Expression] = None,
    ) -> None:
        super().__init__(left.layout.concat(right.layout), left.stats)
        self.left = left
        self.right = right
        self.predicate = predicate
        self._pred_fn = predicate.bind(self.layout) if predicate is not None else None
        self._inner_rows: Optional[List[Row]] = None
        self._outer_row: Optional[Row] = None
        self._inner_pos = 0

    def open(self) -> None:
        # The probe loop itself stays row-at-a-time (rare theta-join
        # fallback); only the inner materialization is batched.
        self._inner_rows = (
            self.right.drain_rows() if columnar_enabled() else list(self.right)
        )
        self.left.open()
        self._outer_row = None
        self._inner_pos = 0

    def next(self) -> Optional[Row]:
        if self._inner_rows is None:
            raise ExecutionError("NestedLoopJoin.next() before open()")
        while True:
            if self._outer_row is None:
                self._outer_row = self.left.next()
                if self._outer_row is None:
                    return None
                self._inner_pos = 0
            while self._inner_pos < len(self._inner_rows):
                inner = self._inner_rows[self._inner_pos]
                self._inner_pos += 1
                combined = self._outer_row + inner
                if self._pred_fn is None or is_truthy(self._pred_fn(combined)):
                    self.stats.rows_joined += 1
                    return combined
            self._outer_row = None

    def close(self) -> None:
        self.left.close()
        self._inner_rows = None

    def describe(self) -> str:
        if self.predicate is None:
            return "NestedLoopJoin"
        return f"NestedLoopJoin({self.predicate!r})"

    def children(self) -> List[Operator]:
        return [self.left, self.right]


class SortMergeJoin(Operator):
    """Equi-join by sorting both inputs on the key and merging.

    Materializes both sides; output is ordered by the join key, which the
    optimizer records as an interesting order.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_key_positions: Sequence[int],
        right_key_positions: Sequence[int],
        residual: Optional[Expression] = None,
    ) -> None:
        if len(left_key_positions) != len(right_key_positions):
            raise ExecutionError("join key arity mismatch")
        super().__init__(left.layout.concat(right.layout), left.stats)
        self.left = left
        self.right = right
        self.left_key_positions = tuple(left_key_positions)
        self.right_key_positions = tuple(right_key_positions)
        self.left_key = _key_fn(left_key_positions)
        self.right_key = _key_fn(right_key_positions)
        self.residual = residual
        self._residual_fn = residual.bind(self.layout) if residual is not None else None
        self._output: Optional[Iterator[Row]] = None

    def _merge(self) -> Iterator[Row]:
        def sortable(key_fn):
            def safe(row):
                k = key_fn(row)
                return k
            return safe

        if columnar_enabled():
            left_rows = [r for r in self.left.drain_rows() if self.left_key(r) is not None]
            right_rows = [r for r in self.right.drain_rows() if self.right_key(r) is not None]
        else:
            left_rows = [r for r in self.left if self.left_key(r) is not None]
            right_rows = [r for r in self.right if self.right_key(r) is not None]
        left_rows.sort(key=sortable(self.left_key))
        right_rows.sort(key=sortable(self.right_key))
        i = j = 0
        while i < len(left_rows) and j < len(right_rows):
            lk, rk = self.left_key(left_rows[i]), self.right_key(right_rows[j])
            if lk < rk:
                i += 1
            elif lk > rk:
                j += 1
            else:
                j_end = j
                while j_end < len(right_rows) and self.right_key(right_rows[j_end]) == lk:
                    j_end += 1
                while i < len(left_rows) and self.left_key(left_rows[i]) == lk:
                    for jj in range(j, j_end):
                        combined = left_rows[i] + right_rows[jj]
                        if self._residual_fn is None or is_truthy(self._residual_fn(combined)):
                            self.stats.rows_joined += 1
                            yield combined
                    i += 1
                j = j_end

    def open(self) -> None:
        self._output = self._merge()

    def next(self) -> Optional[Row]:
        if self._output is None:
            raise ExecutionError("SortMergeJoin.next() before open()")
        return next(self._output, None)

    def close(self) -> None:
        self._output = None

    def describe(self) -> str:
        return f"SortMergeJoin({_equi_keys(self)}{_residual(self.residual)})"

    def children(self) -> List[Operator]:
        return [self.left, self.right]


class HashSemiJoin(Operator):
    """Hash-based semi/anti join: emit left rows that have (semi) or lack
    (anti) a key match in the right input.  This is how decorrelated
    EXISTS / NOT EXISTS subqueries execute — e.g. the ``NOT EXISTS
    (SELECT 1 FROM ExcpTops ...)`` of the paper's SQL1."""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_key_positions: Sequence[int],
        right_key_positions: Sequence[int],
        negated: bool = False,
    ) -> None:
        super().__init__(left.layout, left.stats)
        self.left = left
        self.right = right
        self.left_key_positions = tuple(left_key_positions)
        self.right_key_positions = tuple(right_key_positions)
        self.left_key = _key_fn(left_key_positions)
        self.negated = negated
        self._build: Optional[_BuildSide] = None

    def open(self) -> None:
        self._build = _build_side(self.right, self.right_key_positions)
        self.left.open()

    def next(self) -> Optional[Row]:
        if self._build is None:
            raise ExecutionError("HashSemiJoin.next() before open()")
        while True:
            row = self.left.next()
            if row is None:
                return None
            found = self.left_key(row) in self._build.buckets()
            if found != self.negated:
                self.stats.rows_joined += 1
                return row

    def next_batch(self) -> Optional[Batch]:
        if self._build is None:
            raise ExecutionError("HashSemiJoin.next_batch() before open()")
        while True:
            batch = self.left.next_batch()
            if batch is None:
                return None
            matched, _ = probe_pairs(batch, self.left_key_positions, self._build)
            if is_ndarray(matched):
                keep = np.full(batch.length, self.negated)
                keep[matched] = not self.negated
                kept = int(keep.sum())
            else:
                keep = [self.negated] * batch.length
                for i in matched:
                    keep[i] = not self.negated
                kept = sum(keep)
            if kept == 0:
                continue
            self.stats.rows_joined += kept
            if kept == batch.length:
                return batch
            return batch.compact(keep, kept)

    def close(self) -> None:
        self.left.close()
        self._build = None

    def describe(self) -> str:
        name = "HashAntiJoin" if self.negated else "HashSemiJoin"
        return f"{name}({_equi_keys(self)})"

    def children(self) -> List[Operator]:
        return [self.left, self.right]
