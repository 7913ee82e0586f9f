"""Early-termination methods (Section 5.3): DGJ operator stacks.

The plan mirrors the paper's Figure 15: a score-ordered index scan of
TopInfo feeds a stack of DGJ joins — first into the pairs table
(LeftTops / AllTops) on TID, then into each constrained entity table —
with the query predicates as residual filters inside the stack.  A
witness row for a topology makes the driver skip the rest of that
group; after k topologies the query stops.

Fast-Top-k-ET merges the pruned topologies into the score order
(:func:`~repro.core.methods.pruned.merge_ranked`, Fast-Top-k's merge):
when the next-best score belongs to a pruned topology, its online check
(SQL5's answer, by :class:`~repro.core.methods.pruned.PrunedChecks`)
is made before any lower-scored unpruned group is processed.

``flavor`` selects the DGJ implementation per entity level: ``idgj``
(index nested-loops) or ``hdgj`` (group-at-a-time hash join) — the
plans of Figure 15 (a) and (b).

In columnar mode the IDGJ plan runs set-at-a-time: both constraints are
evaluated over their entity tables once per data version
(:class:`~repro.core.methods.pruned.Endpoints`, shared across queries)
and
:class:`~repro.relational.operators.IDGJProbe` walks TopInfo's kept
groups from the system's score-ordered group array
(:class:`~repro.core.etindexes.EtIndexes`, built once per version) and
decides each group with a vectorised probe, in the same order, to the
same witness and for the same counters as the operator stack, which
``row_mode()`` and the HDGJ flavor still run.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.etindexes import topinfo_filter
from repro.core.methods.base import Method
from repro.core.methods.pruned import Endpoints, merge_ranked
from repro.core.plan import QueryPlan
from repro.core.query import TopologyQuery
from repro.errors import TopologyError
from repro.relational.operators import (
    FirstPerGroup,
    Filter,
    GroupAware,
    GroupFilter,
    HDGJ,
    IDGJ,
    IDGJProbe,
    Operator,
    OrderedIndexScan,
    SeqScan,
)
from repro.relational.runtime import columnar_enabled


class _EtBase(Method):
    is_topk = True
    estimates_costs = True
    pairs_table = "LeftTops"
    use_pruned_store = True

    def __init__(self, system, flavor: str = "idgj") -> None:
        super().__init__(system)
        if flavor not in ("idgj", "hdgj"):
            raise TopologyError("flavor must be 'idgj' or 'hdgj'")
        self.flavor = flavor
        self.plan_strategies = (f"et-{flavor}",)

    # ------------------------------------------------------------------
    # Plan construction (Figure 15)
    # ------------------------------------------------------------------
    def _group_source(self, query: TopologyQuery) -> GroupAware:
        """TopInfo in score order, one group per topology of the
        query's entity pair."""
        db = self.system.database
        topinfo = db.table("TopInfo")
        score_col = self._score_col(query)
        sorted_index = topinfo.sorted_index_on(score_col)
        if sorted_index is None:
            raise TopologyError(f"no sorted index on TopInfo.{score_col}")
        tid_pos = topinfo.schema.column_position("TID")
        scan = OrderedIndexScan(
            topinfo,
            "t",
            sorted_index,
            descending=True,
            group_positions=[tid_pos],
            stats=db.stats,
        )
        predicate = topinfo_filter(self.system.store_entity_pair(query), self.use_pruned_store)
        return GroupFilter(scan, predicate)

    def _pairs_columns(self, query: TopologyQuery) -> Tuple[str, str]:
        """The pairs-table columns holding entity1's and entity2's ids."""
        return ("e1", "e2") if self.system.orientation(query) else ("e2", "e1")

    def build_stack(self, query: TopologyQuery) -> GroupAware:
        db = self.system.database
        source = self._group_source(query)
        pairs = db.table(self.pairs_table)
        tid_index = pairs.hash_index_on(["TID"])
        stack: GroupAware = IDGJ(
            source,
            pairs,
            "pt",
            tid_index,
            [source.layout.position("t", "tid")],
        )

        col1, col2 = self._pairs_columns(query)
        stack = self._entity_level(
            stack, query.entity1, "q1", col1, query.constraint1.to_expression("q1")
        )
        stack = self._entity_level(
            stack, query.entity2, "q2", col2, query.constraint2.to_expression("q2")
        )
        return stack

    def _entity_level(
        self,
        outer: GroupAware,
        entity_table: str,
        alias: str,
        pairs_column: str,
        predicate,
    ) -> GroupAware:
        db = self.system.database
        table = db.table(entity_table)
        key_pos = outer.layout.position("pt", pairs_column)
        if self.flavor == "idgj":
            pk_index = table.hash_index_on(["ID"])
            return IDGJ(outer, table, alias, pk_index, [key_pos], residual=predicate)

        def inner_factory(table=table, alias=alias, predicate=predicate):
            return Filter(SeqScan(table, alias, db.stats), predicate)

        id_pos = table.schema.column_position("ID")
        return HDGJ(outer, inner_factory, [key_pos], [id_pos])

    def build_probe(self, query: TopologyQuery, endpoints: Endpoints) -> IDGJProbe:
        """The IDGJ plan of :meth:`build_stack` under ``FirstPerGroup``,
        as one set-at-a-time operator."""
        col1, col2 = self._pairs_columns(query)
        indexes = self.system.et_indexes
        order = indexes.group_order(
            self.system.store_entity_pair(query), self._score_col(query), self.use_pruned_store
        )
        join_index = indexes.join_index(
            self.pairs_table, ((col1, query.entity1), (col2, query.entity2))
        )
        return IDGJProbe(
            order, join_index, endpoints.keep(0), endpoints.keep(1), self.system.database.stats
        )

    def operator_tree(self, strategy: str, query: TopologyQuery) -> str:
        tree = FirstPerGroup(self.build_stack(query), None).explain()
        if self.flavor == "idgj" and columnar_enabled():
            # Building the probe would evaluate the endpoint selections.
            tree += "\nruns as one IDGJProbe (columnar mode)"
        return self._with_pruned_checks(tree, query)

    # ------------------------------------------------------------------
    # Driver: merge the DGJ stream with pruned-topology checks
    # ------------------------------------------------------------------
    def execute(
        self, plan: QueryPlan, query: TopologyQuery
    ) -> Tuple[List[int], Optional[List[float]]]:
        if query.k is None:
            raise TopologyError(f"{self.name} requires a top-k query")
        endpoints = Endpoints(self.system, query)
        stream: Operator
        if self.flavor == "idgj" and columnar_enabled():
            stream = self.build_probe(query, endpoints)
        else:
            stream = FirstPerGroup(self.build_stack(query), None)
        tid_pos = stream.layout.position("t", "tid")
        score_pos = stream.layout.position("t", self._score_col(query).lower())
        stream.open()
        try:
            rows = ((row[tid_pos], row[score_pos]) for row in iter(stream.next, None))
            return merge_ranked(rows, self.pruned_checks(query, endpoints), query)
        finally:
            stream.close()


class FullTopKEtMethod(_EtBase):
    """DGJ stack over the unpruned AllTops table."""

    name = "full-top-k-et"
    pairs_table = "AllTops"
    use_pruned_store = False


class FastTopKEtMethod(_EtBase):
    """DGJ stack over LeftTops with pruned topologies merged by score."""

    name = "fast-top-k-et"
