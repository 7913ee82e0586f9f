"""Full-Top-k and Fast-Top-k (Section 5.1): SQL3-SQL5.

Full-Top-k orders the AllTops join by the TopInfo score and fetches the
first k rows (SQL3/SQL4 over the unpruned store).

Fast-Top-k is *staged* per the paper's optimization: evaluate the
LeftTops sub-query first (SQL4); only when a pruned topology's score
could still make the top k is its online check made.  That check gives
SQL5's answer by a walk over the topology's chains
(:class:`~repro.core.methods.pruned.PrunedChecks`), so SQL4 is the one
statement a query executes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.methods.base import Method
from repro.core.methods.fast_top import FastTopMethod
from repro.core.methods.pruned import Endpoints, PrunedChecks
from repro.core.plan import QueryPlan
from repro.core.query import TopologyQuery
from repro.errors import TopologyError
from repro.relational.sql.tokens import SqlParams, sql_value


class FullTopKMethod(Method):
    name = "full-top-k"
    is_topk = True
    estimates_costs = True
    pairs_table = "AllTops"

    def sql_for(self, query: TopologyQuery, params: Optional[SqlParams] = None) -> str:
        if query.k is None:
            raise TopologyError(f"{self.name} requires a top-k query")
        from1, from2, cond1, cond2 = self._endpoint_sql(query, params)
        join1, join2 = self._pair_join_sql(query, "AT")
        score = self._score_col(query)
        return (
            f"SELECT DISTINCT AT.TID, T.{score} AS SCORE\n"
            f"FROM {from1}, {from2}, {self.pairs_table} AT, TopInfo T\n"
            f"WHERE {cond1} AND {cond2}\n"
            f"  AND {join1} AND {join2} AND T.TID = AT.TID\n"
            f"ORDER BY SCORE DESC, TID DESC\n"
            f"FETCH FIRST {sql_value(query.k, params)} ROWS ONLY"
        )

    def execute(
        self, plan: QueryPlan, query: TopologyQuery
    ) -> Tuple[List[int], Optional[List[float]]]:
        params = SqlParams()
        result = self.system.engine.execute(self.sql_for(query, params), params)
        tids = [row[0] for row in result.rows]
        scores = [row[1] for row in result.rows]
        return tids, scores


class FastTopKMethod(Method):
    name = "fast-top-k"
    is_topk = True
    estimates_costs = True
    pairs_table = "LeftTops"
    use_pruned_store = True

    def __init__(self, system) -> None:
        super().__init__(system)
        self._fast_top = FastTopMethod(system)

    def unpruned_sql(self, query: TopologyQuery, params: Optional[SqlParams] = None) -> str:
        """SQL4: top-k over LeftTops only."""
        from1, from2, cond1, cond2 = self._endpoint_sql(query, params)
        join1, join2 = self._pair_join_sql(query, "LT")
        score = self._score_col(query)
        return (
            f"SELECT DISTINCT LT.TID, T.{score} AS SCORE\n"
            f"FROM {from1}, {from2}, LeftTops LT, TopInfo T\n"
            f"WHERE {cond1} AND {cond2}\n"
            f"  AND {join1} AND {join2} AND T.TID = LT.TID\n"
            f"ORDER BY SCORE DESC, TID DESC\n"
            f"FETCH FIRST {sql_value(query.k, params)} ROWS ONLY"
        )

    def execute(
        self, plan: QueryPlan, query: TopologyQuery
    ) -> Tuple[List[int], Optional[List[float]]]:
        if query.k is None:
            raise TopologyError(f"{self.name} requires a top-k query")
        engine = self.system.engine
        params = SqlParams()
        result = engine.execute(self.unpruned_sql(query, params), params)
        ranked: List[Tuple[int, float]] = [(row[0], row[1]) for row in result.rows]

        # Stage 2 (SQL5's answer, by the walk): check each pruned
        # topology whose score could still enter the current top k, best
        # score first.
        checks = PrunedChecks(self._fast_top, query, Endpoints(self.system, query))
        for topology in checks.ranked():
            score = topology.scores[query.ranking]
            if len(ranked) >= query.k:
                kth = ranked[-1]
                if (score, topology.tid) <= (kth[1], kth[0]):
                    continue  # cannot displace the kth result
            if checks.has_witness(topology):
                ranked.append((topology.tid, score))
                ranked.sort(key=lambda ts: (-ts[1], -ts[0]))
                ranked = ranked[: query.k]
        tids = [t for t, _ in ranked]
        scores = [s for _, s in ranked]
        return tids, scores
