"""Row-level operators: filter and projection."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.relational.column import Batch
from repro.relational.database import ExecStats
from repro.relational.expressions import Expression, Row, RowLayout, is_truthy
from repro.relational.operators.base import GroupAware, Operator


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
        self._batch_fn = predicate.bind_batch(child.layout)

    def open(self) -> None:
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
            result = self._batch_fn(batch)
            if result.kind == "const":
                if result.data is not True:
                    continue
                keep, kept = None, batch.length
            else:
                keep = result.as_keep()
                kept = sum(keep) if isinstance(keep, list) else int(keep.sum())
                if kept == 0:
                    continue
            if emit is not None:
                # The lowered-text provider is keyed by child position.
                batch = Batch([batch.columns[i] for i in emit], batch.length)
            if kept == batch.length:
                return batch
            return batch.compact(keep, kept)

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
