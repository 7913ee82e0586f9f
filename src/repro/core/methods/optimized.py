"""Cost-based method choice (Section 5.4): the ``*-Opt`` methods.

Fast-Top-k-Opt / Full-Top-k-Opt are the cost-based methods: their
:meth:`~repro.core.methods.base.Method.plan` asks the engine's
:class:`~repro.core.plan.Planner` to price (a) the regular staged top-k
plan, via the System-R enumerator's cost for the SQL4 join block plus
the final sort, and (b) both DGJ stacks, via the paper's Theorem-1
dynamic program over (np_i, nc_i, ec_i) — then :meth:`execute` runs the
delegate for whichever strategy the plan chose.  IDGJ and HDGJ stack
costs are both evaluated, so the chosen ET flavor can differ per query
(the paper's "best and worst plans" cases in Table 2).

The estimation itself lives in :mod:`repro.core.plan`; plans are cached
per query class, so repeated-shape traffic skips the enumeration and
the dynamic programs entirely, and the
:class:`~repro.core.plan.CostCalibrator`'s learned per-strategy factors
are applied before the comparison.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.methods.base import Method
from repro.core.methods.et import FastTopKEtMethod, FullTopKEtMethod
from repro.core.methods.topk import FastTopKMethod, FullTopKMethod
from repro.core.plan import (
    STRATEGY_ET_HDGJ,
    STRATEGY_ET_IDGJ,
    STRATEGY_REGULAR,
    QueryPlan,
)
from repro.core.query import TopologyQuery
from repro.errors import TopologyError


class _OptBase(Method):
    is_topk = True
    cost_based = True
    estimates_costs = True
    plan_strategies = (STRATEGY_REGULAR, STRATEGY_ET_IDGJ, STRATEGY_ET_HDGJ)
    pairs_table = "LeftTops"
    use_pruned_store = True

    def __init__(self, system) -> None:
        super().__init__(system)
        regular, et = (
            (FastTopKMethod, FastTopKEtMethod)
            if self.use_pruned_store
            else (FullTopKMethod, FullTopKEtMethod)
        )
        self._delegates: Dict[str, Method] = {
            STRATEGY_REGULAR: regular(system),
            STRATEGY_ET_IDGJ: et(system, flavor="idgj"),
            STRATEGY_ET_HDGJ: et(system, flavor="hdgj"),
        }

    def operator_tree(self, strategy: str, query: TopologyQuery) -> str:
        return self._delegates[strategy].operator_tree(strategy, query)

    def execute(
        self, plan: QueryPlan, query: TopologyQuery
    ) -> Tuple[List[int], Optional[List[float]]]:
        if query.k is None:
            raise TopologyError(f"{self.name} requires a top-k query")
        delegate = self._delegates[plan.strategy]
        return delegate.execute(plan, query)


class FastTopKOptMethod(_OptBase):
    name = "fast-top-k-opt"


class FullTopKOptMethod(_OptBase):
    name = "full-top-k-opt"
    pairs_table = "AllTops"
    use_pruned_store = False
