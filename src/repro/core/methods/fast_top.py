"""Fast-Top (Section 4.3): LeftTops plus online pruned-topology checks.

The paper's SQL1 (:meth:`FastTopMethod.sql_for`) has one UNION branch
joining the satisfying entities with LeftTops and one more per pruned
topology, re-checking its path condition online with a chain join over
the relationship tables and subtracting the exception pairs via NOT
EXISTS.  Each lower branch returns its topology's TID or nothing, so
execution is Full-Top's over LeftTops — the LeftTops branch alone — and
adds every pruned TID whose check
(:class:`~repro.core.methods.pruned.PrunedChecks`, the same answer
without a statement) holds: one statement per query.
"""

from __future__ import annotations

from typing import Optional

from repro.core.methods.full_top import FullTopMethod
from repro.core.methods.pruned import pruned_topologies
from repro.core.model import Topology
from repro.core.pathsql import multi_chain_fragments
from repro.core.query import TopologyQuery
from repro.relational.sql.tokens import SqlParams, sql_value


class FastTopMethod(FullTopMethod):
    name = "fast-top"
    pairs_table = "LeftTops"
    use_pruned_store = True

    def pruned_branch_sql(
        self, query: TopologyQuery, topology: Topology, params: Optional[SqlParams] = None
    ) -> str:
        """The SQL1 lower sub-query for one pruned topology."""
        from1, from2, cond1, cond2 = self._endpoint_sql(query, params)
        es1, es2 = self.system.store_entity_pair(query)
        oriented = self.system.orientation(query)
        end1_alias = "q1" if oriented else "q2"
        end2_alias = "q2" if oriented else "q1"
        chain = multi_chain_fragments(
            topology.class_signatures, es1, es2, end1_alias, end2_alias
        )
        not_exists = (
            f"NOT EXISTS (SELECT 1 FROM ExcpTops X "
            f"WHERE X.E1 = {end1_alias}.ID AND X.E2 = {end2_alias}.ID "
            f"AND X.TID = {sql_value(topology.tid, params)})"
        )
        from_clause = ", ".join([from1, from2] + list(chain.from_items))
        conditions = [cond1, cond2] + list(chain.conditions) + [not_exists]
        return (
            f"SELECT DISTINCT {sql_value(topology.tid, params)} AS TID\n"
            f"FROM {from_clause}\n"
            f"WHERE " + " AND ".join(conditions)
        )

    def pruned_check_sql(
        self, query: TopologyQuery, topology: Topology, params: Optional[SqlParams] = None
    ) -> str:
        """SQL5: does some satisfying pair match this pruned topology's
        path condition and survive the exception table?"""
        return self.pruned_branch_sql(query, topology, params) + "\nFETCH FIRST 1 ROWS ONLY"

    def sql_for(self, query: TopologyQuery) -> str:
        """SQL1 as the paper writes it: every pruned topology a branch."""
        branches = [self.pairs_sql(query)] + [
            self.pruned_branch_sql(query, topology)
            for topology in pruned_topologies(self.system, query)
        ]
        return "\nUNION\n".join(branches)
