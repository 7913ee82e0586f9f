"""One query's endpoint sets and its online checks of pruned topologies.

A 2-query constrains two entity sets.  :class:`Endpoints` evaluates each
constraint once, vectorised over its entity table; everything downstream
is a membership test against the result — the batch DGJ probe reads the
per-row keep flags, the pruned-check reducer reads the ids.

:class:`PrunedChecks` is the one place a pruned topology is checked
online: it gives the answer of the paper's SQL5 (and of each lower
branch of SQL1) without executing a statement.  The check is one walk
over the topology's chains.  Its first phase, a forward semi-join
reduction (:func:`~repro.core.pathsql.chains_reach`), walks the chains
from the first endpoint set; when they cannot reach the second, the
answer is "no witness".  Otherwise an exact witness search
(:func:`~repro.core.pathsql.chains_witness`) looks for one pair the
statement would return — simple paths, every class connecting the same
pair, the topology's ExcpTops pairs left out — and stops at the first.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Tuple

from repro.core.model import Topology
from repro.core.pathsql import chains_reach, chains_witness
from repro.core.query import TopologyQuery
from repro.errors import TopologyError
from repro.relational.column import ColumnValues, compact_column, is_ndarray
from repro.relational.operators import table_batch, table_layout

if TYPE_CHECKING:
    from repro.core.methods.fast_top import FastTopMethod


class Endpoints:
    """The two endpoint constraints of one query, each evaluated at most
    once.  Side 0 is ``(entity1, constraint1)``, side 1 the other."""

    def __init__(self, system, query: TopologyQuery) -> None:
        self._database = system.database
        self._sides = (
            (query.entity1, query.constraint1),
            (query.entity2, query.constraint2),
        )
        self._keep: List[Any] = [None, None]
        self._ids: List[Any] = [None, None]

    def keep(self, side: int) -> ColumnValues:
        """Per-row keep flags over the side's entity table (unknown is
        not kept, as in a WHERE clause)."""
        flags = self._keep[side]
        if flags is None:
            entity, constraint = self._sides[side]
            table = self._database.table(entity)
            alias = f"q{side + 1}"
            evaluate = constraint.to_expression(alias).bind_batch(
                table_layout(table, alias)
            )
            flags = self._keep[side] = evaluate(table_batch(table)).as_keep()
        return flags

    def ids(self, side: int) -> Any:
        """The ids of the kept entities: a numpy array where the ID
        column has one, a set otherwise."""
        ids = self._ids[side]
        if ids is None:
            table = self._database.table(self._sides[side][0])
            position = table.schema.column_position("ID")
            values = table.store.array(position)
            if values is None:
                values = table.store.column_values(position)
            ids = compact_column(values, self.keep(side))
            ids = self._ids[side] = ids if is_ndarray(ids) else set(ids)
        return ids


class PrunedChecks:
    """The online checks of one query's pruned topologies."""

    def __init__(
        self, fast_top: "FastTopMethod", query: TopologyQuery, endpoints: Endpoints
    ) -> None:
        self._fast_top = fast_top
        self._query = query
        self._endpoints = endpoints
        system = self._system = fast_top.system
        self._entity_pair = system.store_entity_pair(query)
        # Chains are stored in build orientation: they start at the side
        # whose entity set is the store's first.
        self._first = 0 if system.orientation(query) else 1

    def ranked(self) -> List[Topology]:
        """The query's pruned topologies, best score first."""
        ranking = self._query.ranking
        return sorted(
            self._fast_top.pruned_topologies(self._query),
            key=lambda t: (-t.scores[ranking], -t.tid),
        )

    def has_witness(self, topology: Topology) -> bool:
        """The answer of SQL5: does some satisfying pair match the
        topology's path condition and survive its exception pairs?"""
        database = self._system.database
        stats = database.stats
        stats.pruned_checks += 1
        es1, es2 = self._entity_pair
        signatures = topology.class_signatures
        end1_ids = self._endpoints.ids(self._first)
        ends = chains_reach(
            database, signatures, es1, es2, end1_ids, self._endpoints.ids(1 - self._first)
        )
        if len(ends) == 0:
            stats.pruned_checks_proved_empty += 1
            return False
        return chains_witness(
            database, signatures, es1, es2, end1_ids, ends, self._exceptions(topology)
        )

    def _exceptions(self, topology: Topology) -> Tuple[ColumnValues, ColumnValues]:
        """The (E1, E2) columns of the topology's ExcpTops rows."""
        table = self._system.database.table("ExcpTops")
        index = table.hash_index_on(["TID"])
        if index is None:
            raise TopologyError("ExcpTops.TID has no hash index")
        rows = index.lookup(topology.tid)
        e1, e2 = table.store.take_columns(
            rows, [table.schema.column_position(c) for c in ("E1", "E2")]
        )
        return e1, e2
