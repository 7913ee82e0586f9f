"""Full-Top (Section 3.2): query the precomputed AllTops table."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.methods.base import Method, rank_scored
from repro.core.plan import QueryPlan
from repro.core.query import TopologyQuery
from repro.relational.sql.tokens import SqlParams


class FullTopMethod(Method):
    """One SQL join of the satisfying entities against AllTops — the
    paper's example:

    .. code-block:: sql

        SELECT DISTINCT AT.TID
        FROM Protein P, DNA D, AllTops AT
        WHERE P.desc.ct('enzyme') AND D.type = 'mRNA'
          AND P.ID = AT.E1 AND D.ID = AT.E2
    """

    name = "full-top"
    pairs_table = "AllTops"

    def execute(
        self, plan: QueryPlan, query: TopologyQuery
    ) -> Tuple[List[int], Optional[List[float]]]:
        params = SqlParams()
        result = self.system.engine.execute(self.pairs_sql(query, params), params)
        tids = {row[0] for row in result.rows}
        checks = self.pruned_checks(query)
        if checks is not None:
            tids.update(checks.witnessed())
        if query.k is None:
            return sorted(tids), None
        store = self.system.require_store()
        scored = {t: store.topology(t).scores[query.ranking] for t in tids}
        return rank_scored(scored, query.k)
