"""Common scaffolding for the nine query methods.

Every method runs in two phases: :meth:`Method.plan` obtains a
:class:`~repro.core.plan.QueryPlan` (through the engine's plan cache, so
repeated-shape traffic skips the optimizer) and :meth:`Method.execute`
carries it out.  :meth:`Method.run` wires the two together with the
timing/counter rig and feeds the executed plan's (estimated cost,
observed work) pair back to the engine's cost calibrator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core.methods.pruned import Endpoints, PrunedChecks, pruned_topologies
from repro.core.plan import DEFAULT_COST_K, STRATEGY_REGULAR, QueryPlan
from repro.core.query import TopologyQuery
from repro.core.ranking import score_column
from repro.errors import TopologyError
from repro.obs import registry, span
from repro.relational.sql.tokens import SqlParams, sql_value


#: The ``work`` counters that say how far an early-termination plan
#: went: tagged onto the ``engine.execute`` span and carried into the
#: slow-query record, so "why was this top-k slow" reads off the trace.
TRACED_WORK = ("pruned_checks", "pruned_checks_proved_empty", "groups_probed")


def rank_scored(
    scored: Dict[int, float], k: Optional[int]
) -> Tuple[List[int], List[float]]:
    """Order a tid -> score map (score desc, tid desc on ties) and cut at
    ``k``: the ranking every scored answer follows, including a sharded
    one merged from per-shard score maps."""
    ordered = sorted(scored.items(), key=lambda kv: (-kv[1], -kv[0]))
    if k is not None:
        ordered = ordered[:k]
    return [t for t, _ in ordered], [s for _, s in ordered]


@dataclass
class MethodResult:
    """One query evaluation's outcome.

    ``tids`` are topology ids — ranked (score descending, tid descending
    on ties) for top-k methods, sorted ascending for exhaustive methods.
    ``work`` captures the executor counters consumed (rows scanned,
    index probes, ...), a noise-free complement to wall-clock time.
    ``plan`` is the structured :class:`~repro.core.plan.QueryPlan` the
    method executed; ``planning_seconds`` is the share of
    ``elapsed_seconds`` spent obtaining it (near zero on a plan-cache
    hit).  ``plan_choice`` derives the old free-text label from the
    plan, kept for backward compatibility.  ``generation`` is stamped by
    :class:`~repro.service.server.TopologyServer` with the store
    generation that produced the answer (``None`` when the result came
    straight from the engine) — under hot rebuilds it tells which
    snapshot of the data a cached or in-flight answer reflects.
    """

    method: str
    query: TopologyQuery
    tids: List[int]
    scores: Optional[List[float]]
    elapsed_seconds: float
    work: Dict[str, int] = field(default_factory=dict)
    plan: Optional[QueryPlan] = None
    planning_seconds: float = 0.0
    generation: Optional[int] = None

    @property
    def plan_choice(self) -> Optional[str]:
        """Short human-readable plan label (derived from ``plan``)."""
        return self.plan.choice if self.plan is not None else None

    @property
    def ranked(self) -> List[Tuple[int, float]]:
        if self.scores is None:
            raise ValueError(f"method {self.method} does not produce scores")
        return list(zip(self.tids, self.scores))


class Method:
    """Base class: holds the system handle and the timing/counter rig.

    Planning metadata consumed by :class:`~repro.core.plan.Planner`:

    ``plan_strategies``
        The strategy menu (one entry for fixed-strategy methods, the
        regular/ET triple for the cost-based ``*-Opt`` methods).
    ``cost_based``
        True when :meth:`plan` must choose among the strategies by
        calibrated cost (the ``*-Opt`` methods).
    ``estimates_costs``
        True when the single fixed strategy is priced anyway, so every
        execution feeds the calibrator (all top-k methods).
    ``pairs_table`` / ``use_pruned_store``
        Which materialized pairs table the plan joins, and whether it is
        the pruned one (LeftTops + online pruned-topology checks).

    Each Fast method is its Full method over LeftTops with its answers
    passed through :class:`~repro.core.methods.pruned.PrunedChecks`.
    """

    name = "abstract"
    is_topk = False
    cost_based = False
    estimates_costs = False
    plan_strategies: Tuple[str, ...] = (STRATEGY_REGULAR,)
    pairs_table: Optional[str] = None
    use_pruned_store = False

    def __init__(self, system) -> None:
        self.system = system

    # -- Template ----------------------------------------------------------
    def run(self, query: TopologyQuery) -> MethodResult:
        self.system.validate_query(query)
        t0 = time.perf_counter()
        with span("engine.plan", method=self.name):
            plan = self.plan(query)
        planning_seconds = time.perf_counter() - t0
        stats = self.system.database.stats
        before = stats.snapshot()
        t1 = time.perf_counter()
        with span("engine.execute", method=self.name, strategy=plan.choice) as executing:
            tids, scores = self.execute(plan, query)
            after = stats.snapshot()
            work = {k: after[k] - before[k] for k in after}
            if executing.recording:
                executing.tag(**{name: work[name] for name in TRACED_WORK})
        execute_seconds = time.perf_counter() - t1
        checks = work["pruned_checks"]
        if checks:
            proved_empty = work["pruned_checks_proved_empty"]
            counter = registry().counter(
                "repro.engine.pruned_checks",
                "Online checks of pruned topologies, by outcome.",
            )
            counter.inc(proved_empty, outcome="proved_empty")
            counter.inc(checks - proved_empty, outcome="executed")
        self.system.record_plan_observation(plan, work)
        return MethodResult(
            method=self.name,
            query=query,
            tids=tids,
            scores=scores,
            elapsed_seconds=planning_seconds + execute_seconds,
            work=work,
            plan=plan,
            planning_seconds=planning_seconds,
        )

    def plan(self, query: TopologyQuery) -> QueryPlan:
        """The plan this method will execute (engine plan cache aware)."""
        return self.system.plan_query(query, self)

    def execute(
        self, plan: QueryPlan, query: TopologyQuery
    ) -> Tuple[List[int], Optional[List[float]]]:
        """Carry out a plan produced by :meth:`plan`."""
        raise NotImplementedError

    def operator_tree(self, strategy: str, query: TopologyQuery) -> str:
        """The operator tree ``strategy`` runs for ``query``, rendered
        (EXPLAIN's body): the engine's plan of :meth:`pairs_sql` — the
        one pricing prepared, a k-less query at
        :data:`~repro.core.plan.DEFAULT_COST_K` as pricing does it."""
        params = SqlParams()
        sql = self.pairs_sql(replace(query, k=query.k or DEFAULT_COST_K), params)
        return self._with_pruned_checks(self.system.engine.explain(sql, params), query)

    def _with_pruned_checks(self, tree: str, query: TopologyQuery) -> str:
        """``tree`` plus, over LeftTops, the line naming the online
        checks of the pair's pruned topologies."""
        if not self.use_pruned_store:
            return tree
        merged = ", merged by score" if self.is_topk else ""
        count = len(pruned_topologies(self.system, query))
        return f"{tree}\nPrunedChecks(topologies={count}{merged})"

    # -- Shared helpers ------------------------------------------------------
    def pairs_sql(self, query: TopologyQuery, params: Optional[SqlParams] = None) -> str:
        """The satisfying pairs joined with :attr:`pairs_table`: the TIDs
        (Full-Top's join, SQL1's LeftTops branch), or for a top-k method
        the best k by the TopInfo score (SQL3 over AllTops, SQL4 over
        LeftTops)."""
        from1, from2, cond1, cond2 = self._endpoint_sql(query, params)
        alias = "AT" if self.pairs_table == "AllTops" else "LT"
        join1, join2 = self._pair_join_sql(query, alias)
        if not self.is_topk:
            return (
                f"SELECT DISTINCT {alias}.TID\n"
                f"FROM {from1}, {from2}, {self.pairs_table} {alias}\n"
                f"WHERE {cond1} AND {cond2}\n"
                f"  AND {join1} AND {join2}"
            )
        if query.k is None:
            raise TopologyError(f"{self.name} requires a top-k query")
        score = self._score_col(query)
        return (
            f"SELECT DISTINCT {alias}.TID, T.{score} AS SCORE\n"
            f"FROM {from1}, {from2}, {self.pairs_table} {alias}, TopInfo T\n"
            f"WHERE {cond1} AND {cond2}\n"
            f"  AND {join1} AND {join2} AND T.TID = {alias}.TID\n"
            f"ORDER BY SCORE DESC, TID DESC\n"
            f"FETCH FIRST {sql_value(query.k, params)} ROWS ONLY"
        )

    def pruned_checks(
        self, query: TopologyQuery, endpoints: Optional[Endpoints] = None
    ) -> Optional[PrunedChecks]:
        """The online checks of the query's pruned topologies; None over
        AllTops, which holds every topology."""
        if not self.use_pruned_store:
            return None
        if endpoints is None:
            endpoints = Endpoints(self.system, query)
        return PrunedChecks(self.system, query, endpoints)

    def _endpoint_sql(
        self, query: TopologyQuery, params: Optional[SqlParams] = None
    ) -> Tuple[str, str, str, str]:
        """FROM items and WHERE fragments for the two constrained
        entity tables, aliased ``q1`` and ``q2`` (constraint values
        bound into ``params`` when given — see :mod:`repro.core.query`)."""
        from1 = f"{query.entity1} q1"
        from2 = f"{query.entity2} q2"
        cond1 = query.constraint1.to_sql("q1", params)
        cond2 = query.constraint2.to_sql("q2", params)
        return from1, from2, cond1, cond2

    def _pair_join_sql(self, query: TopologyQuery, pairs_alias: str) -> Tuple[str, str]:
        """Join conditions tying the pairs table (AllTops/LeftTops) to the
        two entity aliases, respecting the build orientation."""
        if self.system.orientation(query):
            return (f"q1.ID = {pairs_alias}.E1", f"q2.ID = {pairs_alias}.E2")
        return (f"q1.ID = {pairs_alias}.E2", f"q2.ID = {pairs_alias}.E1")

    def _score_col(self, query: TopologyQuery) -> str:
        return score_column(query.ranking)
