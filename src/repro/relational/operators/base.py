"""Volcano-style operator interface, with a batched columnar fast path.

The paper builds on the iterator model of Graefe's Volcano ([17] in the
paper): every operator supports ``open`` / ``next`` / ``close``, and the
DGJ family (Section 5.3) adds ``advance_to_next_group``.  ``next``
returns a row tuple or ``None`` at end of stream.

The columnar engine adds ``next_batch``, returning a
:class:`~repro.relational.column.Batch` of column vectors (or ``None``
at end of stream).  ``open``/``close`` are shared between the two
protocols; a parent must drive each child through exactly *one* of
``next`` or ``next_batch`` per execution.  The base ``next_batch``
wraps ``next``, so operators without a native batch implementation
(the group-aware DGJ family) transparently downgrade their subtree to
row-at-a-time while the rest of the plan stays batched.

Which protocol the top-level drivers (``run`` and the materializing
operators' internal drains) use is decided by
:mod:`repro.relational.runtime` — ``row_mode()`` reproduces the
pre-refactor reference engine exactly.

Every operator carries a :class:`RowLayout` describing its output
columns, so expressions are bound once at plan-construction time.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.relational.column import BATCH_SIZE, Batch
from repro.relational.database import ExecStats
from repro.relational.expressions import Row, RowLayout
from repro.relational.runtime import columnar_enabled


class Operator:
    """Base class for all physical operators."""

    layout: RowLayout

    def __init__(self, layout: RowLayout, stats: Optional[ExecStats] = None) -> None:
        self.layout = layout
        self.stats = stats if stats is not None else ExecStats()

    # -- Volcano interface ------------------------------------------------
    def open(self) -> None:
        raise NotImplementedError

    def next(self) -> Optional[Row]:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    # -- Batched interface -------------------------------------------------
    def next_batch(self) -> Optional[Batch]:
        """Next batch of rows, or None at end of stream.

        Default: accumulate rows from :meth:`next` — the protocol
        downgrade point for row-only operators.
        """
        rows = []
        while len(rows) < BATCH_SIZE:
            row = self.next()
            if row is None:
                break
            rows.append(row)
        if not rows:
            return None
        return Batch.from_rows(rows, self.layout.arity)

    def _batches(self) -> Iterator[Batch]:
        """The batch-protocol sibling of :meth:`__iter__`."""
        self.open()
        try:
            while True:
                batch = self.next_batch()
                if batch is None:
                    break
                yield batch
        finally:
            self.close()

    def drain_rows(self) -> List[Row]:
        """Open, drain via the mode-appropriate protocol, close; return
        all rows as plain tuples.  Used by materializing operators
        (sort, nested-loop inner) for their internal drains."""
        if not columnar_enabled():
            return list(self)
        out: List[Row] = []
        for batch in self._batches():
            out.extend(batch.to_rows())
        return out

    def drain_batch(self) -> Batch:
        """Open, drain through :meth:`next_batch`, close; return all rows
        as one batch.  What a columnar-mode consumer that keeps its
        input as columns (a hash build) calls instead of
        :meth:`drain_rows`."""
        return Batch.concat(list(self._batches()), self.layout.arity)

    # -- Convenience -------------------------------------------------------
    def __iter__(self) -> Iterator[Row]:
        self.open()
        try:
            while True:
                row = self.next()
                if row is None:
                    break
                yield row
        finally:
            self.close()

    def run(self) -> List[Row]:
        """Open, drain, close; return all rows."""
        return self.drain_rows()

    # -- Explain -------------------------------------------------------------
    def describe(self) -> str:
        return type(self).__name__

    def children(self) -> List["Operator"]:
        return []

    def explain(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.describe()]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)


class GroupAware(Operator):
    """Operators that understand *groups of tuples* (Section 5.3).

    Property (a): group order of the input is preserved in the output.
    Property (b): :meth:`advance_to_next_group` skips the remainder of
    the current group.  :meth:`current_group` identifies the group of
    the most recently returned row.
    """

    def advance_to_next_group(self) -> None:
        raise NotImplementedError

    def current_group(self):
        raise NotImplementedError
