"""Row-level operators: filter and projection."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.relational.column import Batch, ColumnValues
from repro.relational.expressions import (
    BatchFunc,
    Expression,
    Row,
    RowLayout,
    conjoin,
    is_truthy,
    split_conjuncts,
)
from repro.relational.keepmemo import (
    Keyed,
    and_keep,
    count_kept,
    memo_flags,
    split_memoised,
)
from repro.relational.operators.base import GroupAware, Operator
from repro.relational.operators.scan import SeqScan


class Filter(Operator):
    """Keep rows for which the predicate is true (unknown -> dropped).

    The batch path evaluates the predicate once per batch to a selection
    mask and compacts survivors; all-pass batches are forwarded intact
    (preserving the scan's lowered-text alignment), all-fail batches are
    skipped without materializing anything.

    ``columns`` names the child columns still read above the filter
    (default: all); the rest — read by the predicate alone — are dropped
    with the rows, before anything is compacted.  Names are matched
    without their alias: this is for the filter of a single relation's
    access path.

    Over a base-table :class:`SeqScan`, the batch path reads the
    conjuncts the keep-flag memo holds (:mod:`repro.relational.keepmemo`)
    as flags over the whole table, once per execution, and slices them
    for each batch; only the rest of the predicate is evaluated per
    batch.  The scan still runs, so every counter is charged as before.
    """

    def __init__(
        self,
        child: Operator,
        predicate: Expression,
        columns: Optional[Sequence[str]] = None,
    ) -> None:
        entries = child.layout.entries
        self._emit: Optional[List[int]] = None
        if columns is not None:
            wanted = {name.lower() for name in columns}
            emit = [i for i, (_, name) in enumerate(entries) if name in wanted]
            if len(emit) < len(entries):
                self._emit = emit
                entries = [entries[i] for i in emit]
        super().__init__(
            child.layout if self._emit is None else RowLayout(entries), child.stats
        )
        self.child = child
        self.predicate = predicate
        self._fn = predicate.bind(child.layout)
        self._memoised: Keyed = []
        self._scan: Optional[SeqScan] = None
        residual: Optional[Expression] = predicate
        if isinstance(child, SeqScan):
            self._memoised, rest = split_memoised(child.table, split_conjuncts(predicate))
            if self._memoised:
                self._scan = child
                residual = conjoin(rest)
        self._batch_fn: Optional[BatchFunc] = (
            None if residual is None else residual.bind_batch(child.layout)
        )
        # The memoised conjuncts' flags over the whole table, read at
        # the first batch of an execution, and the heap position where
        # the next batch starts (a SeqScan emits the heap in order).
        self._flags: Optional[ColumnValues] = None
        self._offset = 0

    def open(self) -> None:
        self._flags = None
        self._offset = 0
        self.child.open()

    def next(self) -> Optional[Row]:
        emit = self._emit
        while True:
            row = self.child.next()
            if row is None:
                return None
            if is_truthy(self._fn(row)):
                return row if emit is None else tuple(row[i] for i in emit)

    def next_batch(self) -> Optional[Batch]:
        emit = self._emit
        while True:
            batch = self.child.next_batch()
            if batch is None:
                return None
            keep = self._keep(batch)
            if keep is None:
                kept = batch.length
            else:
                kept = count_kept(keep)
                if kept == 0:
                    continue
            if emit is not None:
                # The lowered-text provider is keyed by child position.
                batch = Batch([batch.columns[i] for i in emit], batch.length)
            if kept == batch.length:
                return batch
            return batch.compact(keep, kept)

    def _keep(self, batch: Batch) -> Optional[ColumnValues]:
        """The batch's keep flags; None when every row is kept."""
        keep: Optional[ColumnValues] = None
        scan = self._scan
        if scan is not None:
            if self._flags is None:
                self._flags = memo_flags(scan.table, scan.alias, self._memoised)
            start = self._offset
            self._offset += batch.length
            keep = self._flags[start : self._offset]
        if self._batch_fn is None:
            return keep
        result = self._batch_fn(batch)
        if result.kind == "const":
            return keep if result.data is True else [False] * batch.length
        rest = result.as_keep()
        return rest if keep is None else and_keep(keep, rest)

    def close(self) -> None:
        self.child.close()

    def describe(self) -> str:
        return f"Filter({self.predicate!r})"

    def children(self) -> List[Operator]:
        return [self.child]


class GroupFilter(GroupAware):
    """A filter that forwards the group-awareness of its child — needed
    because the paper's DGJ plans interleave selections (σ_protein,
    σ_DNA) with DGJ joins (Figure 15)."""

    def __init__(self, child: GroupAware, predicate: Expression) -> None:
        super().__init__(child.layout, child.stats)
        self.child = child
        self.predicate = predicate
        self._fn = predicate.bind(child.layout)

    def open(self) -> None:
        self.child.open()

    def next(self) -> Optional[Row]:
        while True:
            row = self.child.next()
            if row is None:
                return None
            if is_truthy(self._fn(row)):
                return row

    def advance_to_next_group(self) -> None:
        self.child.advance_to_next_group()

    def current_group(self):
        return self.child.current_group()

    def close(self) -> None:
        self.child.close()

    def describe(self) -> str:
        return f"GroupFilter({self.predicate!r})"

    def children(self) -> List[Operator]:
        return [self.child]


class Project(Operator):
    """Compute output expressions; names become the output layout with
    the given alias (default ``""`` for top-level SELECT lists).

    ``entries`` overrides the output layout with explicit (alias, name)
    pairs — used by the SQL planner to keep the originating table alias
    on pass-through columns so ``ORDER BY P.ID`` still resolves after
    projection."""

    def __init__(
        self,
        child: Operator,
        exprs: Sequence[Expression],
        names: Sequence[str],
        alias: str = "",
        entries: Optional[Sequence[Tuple[str, str]]] = None,
    ) -> None:
        if len(exprs) != len(names):
            raise ExecutionError("Project needs one name per expression")
        layout_entries = list(entries) if entries is not None else [(alias, n) for n in names]
        super().__init__(RowLayout(layout_entries), child.stats)
        self.child = child
        self.exprs = list(exprs)
        self.names = list(names)
        self._fns = [e.bind(child.layout) for e in exprs]
        self._batch_fns = [e.bind_batch(child.layout) for e in exprs]

    def open(self) -> None:
        self.child.open()

    def next(self) -> Optional[Row]:
        row = self.child.next()
        if row is None:
            return None
        return tuple(fn(row) for fn in self._fns)

    def next_batch(self) -> Optional[Batch]:
        batch = self.child.next_batch()
        if batch is None:
            return None
        columns = [fn(batch).as_column() for fn in self._batch_fns]
        return Batch(columns, batch.length)

    def close(self) -> None:
        self.child.close()

    def describe(self) -> str:
        return f"Project({', '.join(self.names)})"

    def children(self) -> List[Operator]:
        return [self.child]
