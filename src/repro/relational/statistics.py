"""Table/column statistics and selectivity estimation.

Section 5.4.3 assumes "regular database statistics": per-relation
cardinalities, per-column distinct counts, index statistics, and
selectivity estimates for local predicates and joins.  This module
collects those statistics from loaded tables and exposes the estimation
functions the System-R optimizer and the DGJ cost model consume.

Keyword (CONTAINS) predicates are estimated from an inverted
document-frequency table built over text columns — the analogue of a
text-index statistic.  Unknown keywords fall back to a default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.relational.database import Database
from repro.relational.expressions import (
    And,
    Comparison,
    Contains,
    ColumnRef,
    Expression,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    RowLayout,
    has_params,
)
from repro.relational.table import Table

DEFAULT_EQ_SELECTIVITY = 0.01
DEFAULT_RANGE_SELECTIVITY = 0.33
DEFAULT_CONTAINS_SELECTIVITY = 0.1
DEFAULT_LIKE_SELECTIVITY = 0.05
MAX_TRACKED_KEYWORDS = 10_000


@dataclass
class ColumnStats:
    """Statistics for one column."""

    n_distinct: int = 0
    null_count: int = 0
    row_count: int = 0
    min_value: Optional[Any] = None
    max_value: Optional[Any] = None

    @property
    def null_fraction(self) -> float:
        return self.null_count / self.row_count if self.row_count else 0.0

    def eq_selectivity(self) -> float:
        if self.n_distinct <= 0:
            return DEFAULT_EQ_SELECTIVITY
        return (1.0 - self.null_fraction) / self.n_distinct

    def range_selectivity(self, op: str, value: Any) -> float:
        """Linear interpolation over [min, max] for numeric columns."""
        if (
            self.min_value is None
            or self.max_value is None
            or not isinstance(value, (int, float))
            or not isinstance(self.min_value, (int, float))
            or not isinstance(self.max_value, (int, float))
        ):
            return DEFAULT_RANGE_SELECTIVITY
        span = float(self.max_value) - float(self.min_value)
        if span <= 0:
            return DEFAULT_RANGE_SELECTIVITY
        frac_below = min(1.0, max(0.0, (float(value) - float(self.min_value)) / span))
        if op in ("<", "<="):
            sel = frac_below
        else:  # ">", ">="
            sel = 1.0 - frac_below
        return min(1.0, max(0.0, sel)) * (1.0 - self.null_fraction)


@dataclass
class TableStats:
    """Statistics for one table."""

    row_count: int = 0
    columns: Dict[str, ColumnStats] = field(default_factory=dict)
    # (column name, keyword) -> fraction of rows containing the keyword
    keyword_fractions: Dict[Tuple[str, str], float] = field(default_factory=dict)

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name.lower())


def collect_table_stats(table: Table, index_keywords: bool = True) -> TableStats:
    """One pass per column computing all column statistics.

    Column-major over the table's column store — each column's values
    are contiguous, so the aggregation loop touches one list at a time
    instead of re-indexing every row tuple.  Deliberately pure Python
    (no numpy) even for numeric columns: statistics feed the optimizer,
    and plan choices must be identical whether or not numpy is
    installed, or unordered query results could legally differ between
    the two configurations.

    ``index_keywords`` additionally builds word-level document
    frequencies for text columns (bounded by
    :data:`MAX_TRACKED_KEYWORDS` per column).
    """
    stats = TableStats(row_count=table.row_count)
    keyword_counts: Dict[str, Dict[str, int]] = {}

    for column, values in zip(table.schema.columns, table.store.columns):
        name = column.name.lower()
        col = ColumnStats(row_count=table.row_count)
        stats.columns[name] = col
        distinct: set = set()
        for value in values:
            if value is None:
                col.null_count += 1
                continue
            distinct.add(value)
            if not isinstance(value, str):
                if col.min_value is None or value < col.min_value:
                    col.min_value = value
                if col.max_value is None or value > col.max_value:
                    col.max_value = value
            elif index_keywords:
                words = keyword_counts.setdefault(name, {})
                if len(words) < MAX_TRACKED_KEYWORDS:
                    for word in set(value.lower().split()):
                        word = word.strip(".,;:()[]")
                        if word:
                            words[word] = words.get(word, 0) + 1
        col.n_distinct = len(distinct)

    if table.row_count:
        for name, words in keyword_counts.items():
            for word, count in words.items():
                stats.keyword_fractions[(name, word)] = count / table.row_count
    return stats


class StatsCatalog:
    """Statistics for every table in a database, with estimation API."""

    def __init__(self, database: Database, index_keywords: bool = True) -> None:
        self.database = database
        self._tables: Dict[str, TableStats] = {}
        self._index_keywords = index_keywords

    def refresh(self, table_name: Optional[str] = None) -> None:
        """(Re)collect statistics for one table or all tables."""
        if table_name is not None:
            table = self.database.table(table_name)
            self._tables[table_name.lower()] = collect_table_stats(
                table, self._index_keywords
            )
            return
        for table in self.database.tables():
            self._tables[table.schema.name.lower()] = collect_table_stats(
                table, self._index_keywords
            )

    def invalidate(self, table_name: Optional[str] = None) -> None:
        """Drop cached statistics (for one table or all) without
        recollecting; the next :meth:`table_stats` call recollects
        lazily.  Cheaper than :meth:`refresh` when the next queries may
        only touch a few tables (e.g. right after a snapshot restore)."""
        if table_name is not None:
            self._tables.pop(table_name.lower(), None)
        else:
            self._tables.clear()

    def table_stats(self, table_name: str) -> TableStats:
        key = table_name.lower()
        if key not in self._tables:
            self.refresh(table_name)
        return self._tables[key]

    def row_count(self, table_name: str) -> int:
        return self.table_stats(table_name).row_count

    # ------------------------------------------------------------------
    # Selectivity estimation
    # ------------------------------------------------------------------
    def predicate_selectivity(
        self,
        expr: Expression,
        alias_tables: Dict[str, str],
    ) -> float:
        """Estimate the fraction of rows satisfying a (single-relation or
        already-joined) predicate.  ``alias_tables`` maps alias -> table
        name so column references resolve to statistics.  A constant
        predicate (no column, no parameter) is evaluated: 1 or 0.
        """
        if not expr.column_refs() and not has_params(expr):
            try:
                return 1.0 if expr.bind(RowLayout([]))(()) else 0.0
            except (ArithmeticError, TypeError):
                pass  # raises per row when executed; price its shape
        if isinstance(expr, And):
            sel = 1.0
            for item in expr.items:
                sel *= self.predicate_selectivity(item, alias_tables)
            return sel
        if isinstance(expr, Or):
            keep = 1.0
            for item in expr.items:
                keep *= 1.0 - self.predicate_selectivity(item, alias_tables)
            return 1.0 - keep
        if isinstance(expr, Not):
            return max(0.0, 1.0 - self.predicate_selectivity(expr.item, alias_tables))
        if isinstance(expr, Comparison):
            return self._comparison_selectivity(expr, alias_tables)
        if isinstance(expr, Contains):
            return self._contains_selectivity(expr, alias_tables)
        if isinstance(expr, Like):
            return DEFAULT_LIKE_SELECTIVITY
        if isinstance(expr, InList):
            ref = expr.value
            if isinstance(ref, ColumnRef):
                col = self._column_stats(ref, alias_tables)
                if col is not None:
                    sel = min(1.0, len(expr.options) * col.eq_selectivity())
                    return 1.0 - sel if expr.negated else sel
            sel = min(1.0, len(expr.options) * DEFAULT_EQ_SELECTIVITY)
            return 1.0 - sel if expr.negated else sel
        if isinstance(expr, IsNull):
            ref = expr.value
            if isinstance(ref, ColumnRef):
                col = self._column_stats(ref, alias_tables)
                if col is not None:
                    return (1.0 - col.null_fraction) if expr.negated else col.null_fraction
            return 0.05
        return 0.5  # unknown predicate shape

    def _column_stats(
        self, ref: ColumnRef, alias_tables: Dict[str, str]
    ) -> Optional[ColumnStats]:
        if ref.qualifier is None:
            # Unqualified: resolvable only if exactly one table has it.
            hits = [
                self.table_stats(t).column(ref.name)
                for t in alias_tables.values()
                if self.table_stats(t).column(ref.name) is not None
            ]
            return hits[0] if len(hits) == 1 else None
        table_name = alias_tables.get(ref.qualifier)
        if table_name is None:
            return None
        return self.table_stats(table_name).column(ref.name)

    def _comparison_selectivity(
        self, expr: Comparison, alias_tables: Dict[str, str]
    ) -> float:
        ref: Optional[ColumnRef] = None
        lit: Optional[Any] = None
        op = expr.op
        if isinstance(expr.left, ColumnRef) and isinstance(expr.right, Literal):
            ref, lit = expr.left, expr.right.value
        elif isinstance(expr.right, ColumnRef) and isinstance(expr.left, Literal):
            ref, lit = expr.right, expr.left.value
            flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
            op = flip.get(op, op)
        if ref is None:
            # column-to-column (within one row) or computed comparison
            return DEFAULT_RANGE_SELECTIVITY if op != "=" else DEFAULT_EQ_SELECTIVITY
        col = self._column_stats(ref, alias_tables)
        if col is None:
            return DEFAULT_EQ_SELECTIVITY if op == "=" else DEFAULT_RANGE_SELECTIVITY
        if op == "=":
            return col.eq_selectivity()
        if op == "<>":
            return max(0.0, 1.0 - col.eq_selectivity())
        return col.range_selectivity(op, lit)

    def _contains_selectivity(
        self, expr: Contains, alias_tables: Dict[str, str]
    ) -> float:
        if not (isinstance(expr.haystack, ColumnRef) and isinstance(expr.needle, Literal)):
            return DEFAULT_CONTAINS_SELECTIVITY
        ref = expr.haystack
        needle = str(expr.needle.value).lower()
        candidates: List[str]
        if ref.qualifier is not None:
            table_name = alias_tables.get(ref.qualifier)
            candidates = [table_name] if table_name else []
        else:
            candidates = list(alias_tables.values())
        for table_name in candidates:
            stats = self.table_stats(table_name)
            frac = stats.keyword_fractions.get((ref.name, needle))
            if frac is not None:
                return frac
        return DEFAULT_CONTAINS_SELECTIVITY

    def join_selectivity(
        self,
        left_table: str,
        left_column: str,
        right_table: str,
        right_column: str,
    ) -> float:
        """Classic System-R equi-join selectivity: 1 / max(ndv, ndv)."""
        left = self.table_stats(left_table).column(left_column)
        right = self.table_stats(right_table).column(right_column)
        left_ndv = left.n_distinct if left and left.n_distinct > 0 else 1
        right_ndv = right.n_distinct if right and right.n_distinct > 0 else 1
        return 1.0 / max(left_ndv, right_ndv)
