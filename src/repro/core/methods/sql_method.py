"""The SQL method (Section 3.1): no precomputation at all.

For every candidate topology, issue SQL to check whether some satisfying
entity pair is related by it.  Of the paper's two candidate sources —
every possible topology of the schema (the 88453-for-l=3 blow-up, which
:func:`repro.graph.schema_enum.enumerate_possible_topologies` counts)
or only the observed ones — this is the second: "restrict our queries
to topologies that have at least some corresponding entities (using
some priori knowledge)", the paper's ~200; we read the candidate list
from TopInfo, which plays the role of that prior knowledge.

Checking a candidate runs its path-condition chain joins through SQL to
fetch candidate pairs; the "complicated" remainder of the per-topology
SQL (exact class-set and sharing verification) is evaluated per pair
with the reference Definition-2 computation, preserving the method's
dominant cost (many complex queries, no reuse across topologies).
"""

from __future__ import annotations

import textwrap
from typing import List, Optional, Tuple

from repro.core.methods.base import Method, rank_scored
from repro.core.model import Topology
from repro.core.pathsql import multi_chain_fragments
from repro.core.plan import STRATEGY_PER_TOPOLOGY, QueryPlan
from repro.core.query import TopologyQuery
from repro.core.topologies import topologies_for_pair
from repro.relational.sql.tokens import SqlParams

MAX_CANDIDATES = 2000
MAX_PAIRS_PER_TOPOLOGY = 500


class SqlMethod(Method):
    name = "sql"
    plan_strategies = (STRATEGY_PER_TOPOLOGY,)

    def _candidates(self, query: TopologyQuery) -> List[Topology]:
        store = self.system.require_store()
        pair = self.system.store_entity_pair(query)
        observed = [
            t for t in store.topologies.values() if t.entity_pair == pair
        ]
        return sorted(observed, key=lambda t: t.tid)[:MAX_CANDIDATES]

    def candidate_pairs_sql(
        self, query: TopologyQuery, topology: Topology, params: Optional[SqlParams] = None
    ) -> str:
        """The existence query's cheap part: pairs satisfying the path
        condition of every constituent class."""
        from1, from2, cond1, cond2 = self._endpoint_sql(query, params)
        es1, es2 = self.system.store_entity_pair(query)
        oriented = self.system.orientation(query)
        end1_alias = "q1" if oriented else "q2"
        end2_alias = "q2" if oriented else "q1"
        chain = multi_chain_fragments(
            topology.class_signatures, es1, es2, end1_alias, end2_alias
        )
        from_clause = ", ".join([from1, from2] + list(chain.from_items))
        conditions = [cond1, cond2] + list(chain.conditions)
        return (
            f"SELECT DISTINCT {end1_alias}.ID, {end2_alias}.ID\n"
            f"FROM {from_clause}\n"
            f"WHERE " + " AND ".join(conditions) + "\n"
            f"FETCH FIRST {MAX_PAIRS_PER_TOPOLOGY} ROWS ONLY"
        )

    def operator_tree(self, strategy: str, query: TopologyQuery) -> str:
        """One existence query per candidate topology: the header, then
        the engine's tree of the first candidate's statement."""
        candidates = self._candidates(query)
        header = f"ForEach(candidate topology, {len(candidates)} candidates)"
        if not candidates:
            return header
        params = SqlParams()
        sql = self.candidate_pairs_sql(query, candidates[0], params)
        tree = self.system.engine.explain(sql, params)
        return header + "\n" + textwrap.indent(tree, "  ")

    def _topology_has_witness(self, query: TopologyQuery, topology: Topology) -> bool:
        params = SqlParams()
        result = self.system.engine.execute(
            self.candidate_pairs_sql(query, topology, params), params
        )
        graph = self.system.graph
        for e1, e2 in result.rows:
            pair = topologies_for_pair(graph, e1, e2, query.max_length)
            if topology.key in pair.topology_keys:
                return True
        return False

    def execute(
        self, plan: QueryPlan, query: TopologyQuery
    ) -> Tuple[List[int], Optional[List[float]]]:
        found: List[int] = []
        for topology in self._candidates(query):
            if self._topology_has_witness(query, topology):
                found.append(topology.tid)
        found.sort()
        if query.k is None:
            return found, None
        store = self.system.require_store()
        scored = {t: store.topology(t).scores[query.ranking] for t in found}
        return rank_scored(scored, query.k)
