"""Distinct Group Join (DGJ) operators — Section 5.3 of the paper.

A DGJ operator (a) understands groups of tuples, preserving the group
order of its input in its output, and (b) supports
``advance_to_next_group`` so a caller can skip the remainder of a group
as soon as a single witness row has been produced.  Stacked over a
score-ordered scan of topologies, DGJ joins let top-k topology queries
terminate early both *within* a topology (first witness pair suffices)
and *across* topologies (stop after k results) — the two inefficiencies
of regular plans identified in Section 5.2.

Two implementations, as in the paper:

* :class:`IDGJ` — index nested-loops flavour: per outer tuple, one hash
  index probe into the inner table.  Trivially preserves outer order.
* :class:`HDGJ` — hash flavour: joins one *group at a time*, hashing the
  group's outer tuples and streaming the inner input against them;
  the inner input is re-evaluated once per group (the cost the paper
  calls out), in exchange for hash- rather than index-probing.

:class:`FirstPerGroup` is the early-termination driver at the top of a
DGJ stack: it emits the first surviving row of each group, immediately
advancing past the rest, and stops after ``n_groups`` emissions.

:class:`IDGJProbe` is the batch-native form of the stack the ET plans
build most often — ``FirstPerGroup`` over an IDGJ into a pairs table
and one IDGJ into each of two keyed tables, over a filtered ordered
scan: it walks the scan's kept groups from a flat array
(:class:`GroupOrder`), decides each with a vectorised probe over
per-group position arrays (:class:`GroupJoinIndex`) and charges the
counters the tuple-at-a-time stack would have charged up to the same
witness.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.relational.column import HAVE_NUMPY, ColumnValues, np, to_pylist
from repro.relational.database import ExecStats
from repro.relational.expressions import Expression, Row, is_truthy
from repro.relational.index import HashIndex, SortedIndex, is_null_key
from repro.relational.operators.base import GroupAware, Operator
from repro.relational.operators.scan import table_batch, table_layout
from repro.relational.table import Table


#: Pairs rows one vectorised probe decides at a time.  A larger group is
#: probed chunk by chunk, so a witness near its start does not pay for
#: the whole group.
PROBE_CHUNK = 1024

_NO_GROUP = object()


def _key_fn(positions: Sequence[int]):
    if len(positions) == 1:
        p = positions[0]
        return lambda row: row[p]
    ps = tuple(positions)
    return lambda row: tuple(row[p] for p in ps)


class IDGJ(GroupAware):
    """Index nested-loops Distinct Group Join.

    For each tuple of the group-aware outer input, probe a hash index on
    the inner table.  Nested loops preserve outer order, hence group
    order (property (a)); skipping discards the pending probe results
    and delegates to the outer's own ``advance_to_next_group``
    (property (b)).
    """

    def __init__(
        self,
        outer: GroupAware,
        table: Table,
        alias: str,
        index: HashIndex,
        outer_key_positions: Sequence[int],
        residual: Optional[Expression] = None,
    ) -> None:
        super().__init__(outer.layout.concat(table_layout(table, alias)), outer.stats)
        self.outer = outer
        self.table = table
        self.alias = alias
        self.index = index
        self.outer_key = _key_fn(outer_key_positions)
        self.residual = residual
        self._residual_fn = residual.bind(self.layout) if residual is not None else None
        self._outer_row: Optional[Row] = None
        self._matches: Optional[Iterator[int]] = None
        self._opened = False
        # The join directly over the group source is the one level that
        # meets every group the stack probes: it counts them.
        self._counts_groups = not isinstance(outer, (IDGJ, HDGJ))
        self._probed_group: Any = _NO_GROUP

    def open(self) -> None:
        self.outer.open()
        self._outer_row = None
        self._matches = None
        self._probed_group = _NO_GROUP
        self._opened = True

    def next(self) -> Optional[Row]:
        if not self._opened:
            raise ExecutionError("IDGJ.next() before open()")
        while True:
            if self._matches is not None:
                pos = next(self._matches, None)
                if pos is not None:
                    combined = self._outer_row + self.table.rows[pos]
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
            if self._counts_groups:
                group = self.outer.current_group()
                if group != self._probed_group:
                    self._probed_group = group
                    self.stats.groups_probed += 1
            self.stats.index_probes += 1
            self._outer_row = outer
            self._matches = iter(self.index.lookup(self.outer_key(outer)))

    def advance_to_next_group(self) -> None:
        """Discontinue the current loop and start a new one at the next
        group (the paper's description of IDGJ skipping)."""
        if not self._opened:
            raise ExecutionError("advance_to_next_group() before open()")
        self._outer_row = None
        self._matches = None
        self.stats.groups_skipped += 1
        self.outer.advance_to_next_group()

    def current_group(self) -> Any:
        return self.outer.current_group()

    def close(self) -> None:
        self.outer.close()
        self._matches = None
        self._opened = False

    def describe(self) -> str:
        residual = f", residual {self.residual!r}" if self.residual is not None else ""
        return f"IDGJ({self.table.schema.name} AS {self.alias}{residual})"

    def children(self) -> List[Operator]:
        return [self.outer]


class HDGJ(GroupAware):
    """Hash Distinct Group Join.

    Processes the join one group at a time: materialize the current
    group's outer tuples, hash them on the join key, then stream a fresh
    instance of the inner input, emitting matches.  Group order is
    preserved because groups are handled strictly in input order; the
    inner input is re-evaluated once per group (``inner_factory`` builds
    a fresh operator each time), which the optimizer's cost model
    charges for.
    """

    def __init__(
        self,
        outer: GroupAware,
        inner_factory: Callable[[], Operator],
        outer_key_positions: Sequence[int],
        inner_key_positions: Sequence[int],
        residual: Optional[Expression] = None,
    ) -> None:
        probe = inner_factory()
        super().__init__(outer.layout.concat(probe.layout), outer.stats)
        self.outer = outer
        self.inner_factory = inner_factory
        self.outer_key = _key_fn(outer_key_positions)
        self.inner_key = _key_fn(inner_key_positions)
        self.residual = residual
        self._residual_fn = residual.bind(self.layout) if residual is not None else None
        self._inner_template = probe
        self._group: Any = None
        self._bucket: Optional[dict] = None
        self._inner: Optional[Operator] = None
        self._emit: Optional[Iterator[Row]] = None
        self._pending: Optional[Tuple[Row, Any]] = None
        self._opened = False

    def open(self) -> None:
        self.outer.open()
        self._group = None
        self._bucket = None
        self._inner = None
        self._emit = None
        self._pending = None
        self._opened = True

    def _collect_group(self) -> bool:
        """Materialize the next outer group; returns False at end."""
        if self._pending is not None:
            first, group = self._pending
            self._pending = None
        else:
            first = self.outer.next()
            if first is None:
                return False
            group = self.outer.current_group()
        bucket: dict = {}
        row = first
        while True:
            key = self.outer_key(row)
            if not is_null_key(key):  # NULL never joins
                bucket.setdefault(key, []).append(row)
            row = self.outer.next()
            if row is None:
                break
            row_group = self.outer.current_group()
            if row_group != group:
                self._pending = (row, row_group)
                break
        self._group = group
        self._bucket = bucket
        self._inner = self.inner_factory()
        self._inner.open()
        self._emit = None
        return True

    def next(self) -> Optional[Row]:
        if not self._opened:
            raise ExecutionError("HDGJ.next() before open()")
        while True:
            if self._emit is not None:
                row = next(self._emit, None)
                if row is not None:
                    self.stats.rows_joined += 1
                    return row
                self._emit = None
            if self._inner is not None:
                inner_row = self._inner.next()
                if inner_row is None:
                    self._inner.close()
                    self._inner = None
                    self._bucket = None
                    continue
                matches = self._bucket.get(self.inner_key(inner_row)) if self._bucket else None
                if matches:
                    combined_rows = []
                    for outer_row in matches:
                        combined = outer_row + inner_row
                        if self._residual_fn is None or is_truthy(self._residual_fn(combined)):
                            combined_rows.append(combined)
                    if combined_rows:
                        self._emit = iter(combined_rows)
                continue
            if not self._collect_group():
                return None

    def advance_to_next_group(self) -> None:
        """Abort the current group's inner scan; the next ``next()`` call
        collects the following group."""
        if not self._opened:
            raise ExecutionError("advance_to_next_group() before open()")
        if self._inner is not None:
            self._inner.close()
            self._inner = None
        self._bucket = None
        self._emit = None
        self.stats.groups_skipped += 1
        # The outer was fully consumed up to the group boundary during
        # _collect_group(), so no downstream skip is required.

    def current_group(self) -> Any:
        return self._group

    def close(self) -> None:
        self.outer.close()
        if self._inner is not None:
            self._inner.close()
            self._inner = None
        self._bucket = None
        self._emit = None
        self._opened = False

    def describe(self) -> str:
        return f"HDGJ(inner={self._inner_template.describe()})"

    def children(self) -> List[Operator]:
        return [self.outer, self._inner_template]


class FirstPerGroup(Operator):
    """Early-termination driver: emit the first surviving row of each
    group and skip the rest; stop after ``n_groups`` groups if given.

    Combined with a score-ordered group source this computes
    ``SELECT DISTINCT <group> ... ORDER BY score DESC FETCH FIRST k``
    without processing whole groups — the paper's Fast-Top-k-ET core.
    """

    def __init__(self, child: GroupAware, n_groups: Optional[int] = None) -> None:
        super().__init__(child.layout, child.stats)
        self.child = child
        self.n_groups = n_groups
        self._emitted = 0

    def open(self) -> None:
        self.child.open()
        self._emitted = 0

    def next(self) -> Optional[Row]:
        if self.n_groups is not None and self._emitted >= self.n_groups:
            return None
        row = self.child.next()
        if row is None:
            return None
        self._emitted += 1
        self.child.advance_to_next_group()
        return row

    def close(self) -> None:
        self.child.close()

    def describe(self) -> str:
        limit = "all" if self.n_groups is None else str(self.n_groups)
        return f"FirstPerGroup(k={limit})"

    def children(self) -> List[Operator]:
        return [self.child]


class GroupOrder:
    """The rows ``GroupFilter(OrderedIndexScan(table, index,
    descending=True), predicate)`` returns, as flat arrays decided once
    per version of ``table``.

    The scan groups by the table's primary key, so each row is one
    group.  ``steps[i]`` is the scan index of the i-th kept row (how
    many rows the scan reads before it), ``keys[i]`` its key and
    ``positions[i]`` its heap position; ``scanned`` is the number of rows
    the whole scan reads (the index's entries: a NULL score is not in
    it).  The predicate keeps a row under WHERE semantics, so NULL is
    never kept.  The owner drops the order when ``table`` changes
    (``Table.data_version``).
    """

    def __init__(
        self,
        table: Table,
        alias: str,
        index: SortedIndex,
        predicate: Expression,
    ) -> None:
        key = table.schema.primary_key
        if key is None:
            raise ExecutionError(f"{table.schema.name} has no primary key")
        order = list(index.scan(descending=True))
        batch = predicate.bind_batch(table_layout(table, alias))(table_batch(table))
        keep = to_pylist(batch.as_keep())
        self.table = table
        self.alias = alias
        self.scanned = len(order)
        self.steps = [step for step, position in enumerate(order) if keep[position]]
        self.positions = [order[step] for step in self.steps]
        self.keys = self.values(key)

    def values(self, column: str) -> list:
        """``column`` of the kept rows, in scan order."""
        values = self.table.store.column_values(self.table.schema.column_position(column))
        return [values[position] for position in self.positions]

    def __len__(self) -> int:
        return len(self.steps)


class GroupJoinIndex:
    """Per-group position arrays for :class:`IDGJProbe`.

    For one group key, :meth:`group` returns two aligned arrays with one
    entry per pairs row of the group, in the order the group index lists
    them: the heap position in each keyed table of the row that the
    pairs row's probe column finds, ``-1`` where it finds none — exactly
    what the upper two IDGJ levels' index probes would return, resolved
    once instead of once per query.  Each keyed table is probed through
    its primary-key index, so a probe finds at most one row.

    Groups are resolved lazily, on first use.  The arrays describe one
    version of the three tables; the owner drops the index when any of
    them changes (``Table.data_version``).
    """

    def __init__(
        self,
        pairs: Table,
        group_column: str,
        probes: Sequence[Tuple[str, Table]],
    ) -> None:
        group_index = pairs.hash_index_on([group_column])
        if group_index is None:
            raise ExecutionError(
                f"no hash index on {pairs.schema.name}.{group_column}"
            )
        self.pairs = pairs
        self.tables = tuple(table for _, table in probes)
        self._group_index = group_index
        self._probes: List[Tuple[list, HashIndex]] = []
        for column, table in probes:
            key = table.schema.primary_key
            index = table.hash_index_on([key]) if key is not None else None
            if index is None:
                raise ExecutionError(f"{table.schema.name} has no primary-key index")
            values = pairs.store.column_values(pairs.schema.column_position(column))
            self._probes.append((values, index))
        self._groups: dict = {}

    def group(self, key: Any) -> Tuple[Any, ...]:
        found = self._groups.get(key)
        if found is None:
            rows = self._group_index.lookup(key)
            found = tuple(
                self._resolve(rows, values, index) for values, index in self._probes
            )
            self._groups[key] = found
        return found

    @staticmethod
    def _resolve(rows: List[int], values: list, index: HashIndex) -> ColumnValues:
        positions = [-1] * len(rows)
        for i, row in enumerate(rows):
            hit = index.lookup(values[row])
            if hit:
                positions[i] = hit[0]
        return np.array(positions, dtype="int64") if HAVE_NUMPY else positions


def _probe_mask(keep: ColumnValues) -> Any:
    """Keep flags indexable by a resolved position: one trailing False,
    so ``-1`` (no partner) reads as not kept."""
    if not HAVE_NUMPY:
        return list(keep) + [False]
    mask = np.empty(len(keep) + 1, dtype=bool)
    mask[:-1] = keep
    mask[-1] = False
    return mask


class IDGJProbe(Operator):
    """Batch-native ``FirstPerGroup(IDGJ(IDGJ(IDGJ(source, pairs), t1), t2))``
    over the filtered ordered scan ``order`` describes.

    ``keep1`` / ``keep2`` are the residual predicates of the two upper
    levels, each already evaluated over its whole table into per-row
    keep flags.  For every kept group of ``order``, in scan order, the
    operator gathers the group's resolved positions from ``join_index``,
    tests both flags a chunk at a time and stops at the first pairs row
    that passes both — the witness the row stack would have stopped at.
    It then returns the group's row of the scanned table and skips on,
    as ``FirstPerGroup`` does.

    The counters are those of the row stack, computed instead of
    incremented.  The scan reads every row up to a decided group's,
    filtered-out rows included; after a witness it reads one more row to
    find the group's end and reads that row again when the next group is
    asked for; at the end it reads the rest.  Per group one probe into
    the pairs table; per pairs row up to the witness one joined row and
    one probe into the first table; per such row whose first partner is
    kept one joined row and one probe into the second table; one joined
    row for the witness and one skip per level and one for the scan.
    """

    def __init__(
        self,
        order: GroupOrder,
        join_index: GroupJoinIndex,
        keep1: ColumnValues,
        keep2: ColumnValues,
        stats: Optional[ExecStats] = None,
    ) -> None:
        super().__init__(table_layout(order.table, order.alias), stats)
        self.order = order
        self.join_index = join_index
        self._masks = (_probe_mask(keep1), _probe_mask(keep2))
        self._next = 0  # the next group of ``order`` to decide
        self._scanned = 0  # scan rows charged as read
        self._opened = False

    def open(self) -> None:
        self._next = 0
        self._scanned = 0
        self._opened = True

    def next(self) -> Optional[Row]:
        if not self._opened:
            raise ExecutionError("IDGJProbe.next() before open()")
        order, stats = self.order, self.stats
        steps = order.steps
        while self._next < len(steps):
            at = self._next
            self._next = at + 1
            step = steps[at]
            stats.rows_scanned += step + 1 - self._scanned
            self._scanned = step + 1
            stats.groups_probed += 1
            stats.index_probes += 1
            if self._has_witness(order.keys[at]):
                stats.groups_skipped += 4
                if step + 1 < order.scanned:
                    stats.rows_scanned += 1
                return order.table.store.row_at(order.positions[at])
        stats.rows_scanned += order.scanned - self._scanned
        self._scanned = order.scanned
        return None

    def _has_witness(self, key: Any) -> bool:
        first, second = self.join_index.group(key)
        mask1, mask2 = self._masks
        stats = self.stats
        if not HAVE_NUMPY:
            reached = 0  # rows whose first partner is kept
            for done, (p1, p2) in enumerate(zip(first, second), 1):
                if mask1[p1]:
                    reached += 1
                    if mask2[p2]:
                        stats.index_probes += done + reached
                        stats.rows_joined += done + reached + 1
                        return True
            stats.index_probes += len(first) + reached
            stats.rows_joined += len(first) + reached
            return False
        for start in range(0, len(first), PROBE_CHUNK):
            kept = mask1[first[start : start + PROBE_CHUNK]]
            hits = kept & mask2[second[start : start + PROBE_CHUNK]]
            at = int(hits.argmax())
            if hits[at]:
                reached = int(np.count_nonzero(kept[: at + 1]))
                stats.index_probes += at + 1 + reached
                stats.rows_joined += at + 2 + reached
                return True
            reached = int(np.count_nonzero(kept))
            stats.index_probes += len(kept) + reached
            stats.rows_joined += len(kept) + reached
        return False

    def close(self) -> None:
        self._opened = False

    def describe(self) -> str:
        first, second = (t.schema.name for t in self.join_index.tables)
        return f"IDGJProbe({self.join_index.pairs.schema.name} -> {first}, {second})"
