"""The per-version structures of the early-termination plans.

The batch IDGJ plan (:class:`~repro.relational.operators.IDGJProbe`)
reads two structures that depend on the data alone, never on a query's
constraints, so one system builds each once per version of the tables
it reads and every ET method and the planner share it:

* a :class:`~repro.relational.operators.GroupOrder` per (store entity
  pair, score column, pruned flag): TopInfo's rows in the descending
  order of the score's sorted index, filtered with SQL ``=`` to the
  pair (and to the unpruned topologies over LeftTops) — the groups the
  Figure-15 scan yields.  The planner reads its group cardinalities
  (``FREQ``) in the same order;
* a :class:`~repro.relational.operators.GroupJoinIndex` per (pairs
  table, query entity pair): each group's resolved positions in the two
  entity tables.

Both live in one :class:`~repro.cache.LRUCache` of
:data:`ET_INDEXES_SIZE` entries, stamped with the table objects they
read and their ``data_version``: a write to one of them, or a table
dropped and created again under its name (a rebuild in place), makes
the next reader build afresh.  Racing readers build identical
structures and the last one stays.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.cache import MISSING, LRUCache
from repro.errors import TopologyError
from repro.relational.database import Database
from repro.relational.expressions import And, ColumnRef, Comparison, Expression, Literal
from repro.relational.operators import GroupJoinIndex, GroupOrder
from repro.relational.table import Table

# A group order per (store entity pair, score column, pruned flag) and a
# join index per (pairs table, oriented query entity pair): 12 and at
# most 8 on the benchmark's store.
ET_INDEXES_SIZE = 64


def topinfo_filter(pair: Tuple[str, str], unpruned_only: bool, alias: str = "t") -> Expression:
    """The selection over TopInfo of one store entity pair's topologies,
    only the unpruned ones when ``unpruned_only`` (pruned topologies have
    no LeftTops rows)."""
    es1, es2 = pair
    filters = [
        Comparison("=", ColumnRef(alias, "es1"), Literal(es1)),
        Comparison("=", ColumnRef(alias, "es2"), Literal(es2)),
    ]
    if unpruned_only:
        filters.append(Comparison("=", ColumnRef(alias, "pruned"), Literal(False)))
    return And(filters)


class EtIndexes:
    """One system's group orders and group join indexes (see the module
    docstring)."""

    def __init__(self, database: Database) -> None:
        self._database = database
        self.cache = LRUCache(ET_INDEXES_SIZE)

    def group_order(
        self, pair: Tuple[str, str], score_column: str, unpruned_only: bool
    ) -> GroupOrder:
        """TopInfo's groups of ``pair`` in descending ``score_column``
        order."""
        topinfo = self._database.table("TopInfo")
        key = ("order", pair, score_column, unpruned_only)
        stamp = _stamp((topinfo,))
        order = self.cache.get(key, MISSING, stamp)
        if order is MISSING:
            index = topinfo.sorted_index_on(score_column)
            if index is None:
                raise TopologyError(f"no sorted index on TopInfo.{score_column}")
            order = GroupOrder(topinfo, "t", index, topinfo_filter(pair, unpruned_only))
            self.cache.put(key, order, stamp)
        return order

    def join_index(
        self, pairs_table: str, probes: Sequence[Tuple[str, str]]
    ) -> GroupJoinIndex:
        """The position arrays of ``pairs_table``'s TID groups in each
        ``(pairs column, entity table)`` of ``probes``."""
        database = self._database
        pairs = database.table(pairs_table)
        probed = [(column, database.table(entity)) for column, entity in probes]
        key = ("join", pairs_table, tuple(probes))
        stamp = _stamp((pairs,) + tuple(table for _, table in probed))
        index = self.cache.get(key, MISSING, stamp)
        if index is MISSING:
            index = GroupJoinIndex(pairs, "TID", probed)
            self.cache.put(key, index, stamp)
        return index

    def clear(self) -> None:
        self.cache.clear()


def _stamp(tables: Sequence[Table]) -> Tuple[Tuple[Table, int], ...]:
    return tuple((table, table.data_version) for table in tables)
