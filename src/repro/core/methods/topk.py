"""Full-Top-k and Fast-Top-k (Section 5.1): SQL3-SQL5.

Full-Top-k orders the AllTops join by the TopInfo score and fetches the
first k rows (SQL3).  Fast-Top-k is the same over LeftTops (SQL4), with
the pruned topologies merged into its rows by score per the paper's
staged optimization: a pruned topology is checked only when its score
could still make the top k.  That check gives SQL5's answer by a walk
over the topology's chains
(:class:`~repro.core.methods.pruned.PrunedChecks`), so SQL4 is the one
statement a query executes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.methods.base import Method
from repro.core.methods.pruned import merge_ranked
from repro.core.plan import QueryPlan
from repro.core.query import TopologyQuery
from repro.relational.sql.tokens import SqlParams


class FullTopKMethod(Method):
    name = "full-top-k"
    is_topk = True
    estimates_costs = True
    pairs_table = "AllTops"

    def execute(
        self, plan: QueryPlan, query: TopologyQuery
    ) -> Tuple[List[int], Optional[List[float]]]:
        params = SqlParams()
        result = self.system.engine.execute(self.pairs_sql(query, params), params)
        return merge_ranked(iter(result.rows), self.pruned_checks(query), query)


class FastTopKMethod(FullTopKMethod):
    name = "fast-top-k"
    pairs_table = "LeftTops"
    use_pruned_store = True
