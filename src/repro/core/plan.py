"""First-class online-phase query plans (Section 5.4, reified).

The paper's headline online result is a *decision*: for every top-k
query, compare the estimated cost of the regular staged plan against the
DGJ early-termination stacks and run the cheaper one (Tables 2-3,
Figures 14-15).  This module turns that decision into a durable object
instead of a side effect:

``QueryPlan``
    What a method decided to run: the chosen strategy, the pairs table,
    and every alternative's estimated + calibrated cost.  Rendered by
    :meth:`QueryPlan.display`; an EXPLAIN adds the operator tree the
    engine builds for the chosen strategy (the regular statement's
    System-R plan, Figure 14, or the DGJ stack, Figure 15).
``PlanClass``
    The cache key — a query's *class*: entity pair, constraint shape
    with selectivity bucket, ``l``, k-bucket, and ranking.  Queries in
    the same class share one plan, so repeated-shape traffic skips the
    optimizer entirely.
``Planner``
    Produces plans.  Prices the regular strategy from the engine's
    prepared plan of the statement that runs it (the SQL4 block plus
    final sort), the DGJ stacks with the Theorem-1 dynamic programs —
    then applies the calibrator's per-strategy scale factors before
    choosing.
``CostCalibrator``
    Learns per-strategy scale factors from (estimated cost, observed
    work) feedback: the factor is the geometric mean of observed/
    estimated ratios, so a systematically mispriced strategy stops being
    chosen.  Its ``version`` bumps when a factor drifts materially,
    which lazily invalidates cached plans.

The plan cache itself is a :class:`repro.cache.LRUCache` over
``PlanClass`` keys owned by
:class:`~repro.core.engine.TopologySearchSystem`, stamped with the
build generation and the calibrator version.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.query import (
    AttributeConstraint,
    ConjunctionConstraint,
    Constraint,
    KeywordConstraint,
    NoConstraint,
    TopologyQuery,
)
from repro.core.ranking import score_column
from repro.relational.optimizer import cost as C
from repro.relational.optimizer.dgj_cost import (
    DgjLevel,
    hdgj_stack_cost,
    idgj_stack_cost,
)
from repro.relational.sql.tokens import SqlParams

# Strategy names shared by plans, methods, and the calibrator.
STRATEGY_REGULAR = "regular"
STRATEGY_ET_IDGJ = "et-idgj"
STRATEGY_ET_HDGJ = "et-hdgj"
STRATEGY_PER_TOPOLOGY = "per-topology"
ET_STRATEGIES = (STRATEGY_ET_IDGJ, STRATEGY_ET_HDGJ)

# k used for pricing a k-less query (EXPLAIN of a top-k method).
DEFAULT_COST_K = 10

# Executor counters -> abstract work units, on the cost model's scale
# (cost.py): the calibrator compares these against estimated costs.
WORK_UNIT_WEIGHTS: Dict[str, float] = {
    "rows_scanned": C.ROW_COST,
    "index_probes": C.INDEX_PROBE_COST,
    "rows_joined": C.HASH_PROBE_COST,
    "rows_emitted": C.OUTPUT_ROW_COST,
    "subqueries_run": 5.0,
}


def work_units(work: Dict[str, int]) -> float:
    """Collapse executor counters into one scalar on the cost model's
    abstract scale — the "observed cost" side of calibration."""
    return float(
        sum(WORK_UNIT_WEIGHTS.get(name, 0.0) * count for name, count in work.items())
    )


def calibration_key(pairs_table: Optional[str], strategy: str) -> str:
    """The calibrator's fit key.  Factors are scoped per (pairs table,
    strategy): the full- and fast- families execute against different
    tables with different estimate regimes (AllTops single join vs
    LeftTops + staged pruned checks), so their feedback must not blend
    into one shared factor."""
    return f"{pairs_table}:{strategy}" if pairs_table else strategy


def selectivity_bucket(selectivity: float) -> int:
    """Decimal order of magnitude of a selectivity (0 = everything,
    -1 = ~10%, ...).  Two constraints in the same bucket are treated as
    the same plan class.

    The statement cache classifies the same conjuncts by half-decade
    (:func:`repro.relational.sql.planner.half_decade`) on purpose.
    Strategy classes at half-decades re-plan too often: on
    ``http_cold_topk`` (seed 11) the plan-cache hit ratio fell from
    0.775 to 0.637, and the replay was slower in 3 of 4 pairs."""
    clamped = min(1.0, max(1e-9, selectivity))
    return int(math.floor(math.log10(clamped) + 1e-12))


def k_bucket(k: Optional[int]) -> int:
    """Power-of-two bucket for the top-k cut-off (0 = exhaustive)."""
    if k is None:
        return 0
    return 1 << max(0, (int(k) - 1).bit_length())


def constraint_structure(constraint: Constraint) -> Tuple:
    """Structural shape of a constraint, value-free: which columns and
    operators it touches, not which literals."""
    if isinstance(constraint, NoConstraint):
        return ("all",)
    if isinstance(constraint, KeywordConstraint):
        return ("contains", constraint.column.lower())
    if isinstance(constraint, AttributeConstraint):
        return ("cmp", constraint.column.lower(), constraint.op)
    if isinstance(constraint, ConjunctionConstraint):
        return ("and",) + tuple(constraint_structure(p) for p in constraint.parts)
    return (type(constraint).__name__.lower(),)


@dataclass(frozen=True)
class PlanClass:
    """A query's equivalence class for planning purposes.

    Two queries in the same class get the same plan: same method and
    strategy menu, same entity pair (in query orientation), same
    constraint shapes *and* selectivity buckets, same ``l``, the same
    k-bucket, and the same ranking scheme."""

    method: str
    strategies: Tuple[str, ...]
    entity1: str
    entity2: str
    shape1: Tuple
    shape2: Tuple
    max_length: int
    k_bucket: int
    ranking: str

    def describe(self) -> str:
        k_part = f", k<={self.k_bucket} by {self.ranking}" if self.k_bucket else ""
        return (
            f"({self.entity1} x {self.entity2}, l={self.max_length}{k_part}, "
            f"sel1~1e{self.shape1[-1]}, sel2~1e{self.shape2[-1]})"
        )


@dataclass(frozen=True)
class PlanAlternative:
    """One strategy the planner considered, with its raw estimate and
    the calibration factor in force when the plan was made."""

    strategy: str
    estimated_cost: Optional[float]
    calibration_factor: float = 1.0

    @property
    def calibrated_cost(self) -> Optional[float]:
        if self.estimated_cost is None:
            return None
        return self.estimated_cost * self.calibration_factor


@dataclass(frozen=True)
class QueryPlan:
    """What a method will execute for one plan class.

    ``strategy`` is the chosen alternative; ``alternatives`` keeps every
    considered strategy with its estimated and calibrated cost (the
    EXPLAIN payload).  ``choice`` is its short free-text label.
    ``operators`` is the operator tree the chosen strategy builds for
    the explained query (:meth:`Method.operator_tree
    <repro.core.methods.base.Method.operator_tree>`), rendered; only
    EXPLAIN fills it, so cached and executed plans carry none."""

    method: str
    strategy: str
    plan_class: PlanClass
    alternatives: Tuple[PlanAlternative, ...]
    pairs_table: Optional[str] = None
    operators: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def calibration_key(self) -> str:
        """The calibrator fit this plan's executions feed/read."""
        return calibration_key(self.pairs_table, self.strategy)

    @property
    def chosen(self) -> Optional[PlanAlternative]:
        for alternative in self.alternatives:
            if alternative.strategy == self.strategy:
                return alternative
        return None

    @property
    def estimated_cost(self) -> Optional[float]:
        chosen = self.chosen
        return chosen.estimated_cost if chosen is not None else None

    @property
    def calibrated_cost(self) -> Optional[float]:
        chosen = self.chosen
        return chosen.calibrated_cost if chosen is not None else None

    @property
    def has_costs(self) -> bool:
        return any(a.estimated_cost is not None for a in self.alternatives)

    @property
    def choice(self) -> str:
        """Short label (``MethodResult.plan_choice``)."""
        if len(self.alternatives) > 1 and self.has_costs:
            inner = ", ".join(
                f"{a.strategy}={a.calibrated_cost:.0f}"
                for a in self.alternatives
                if a.calibrated_cost is not None
            )
            return f"{self.strategy} ({inner})"
        return self.strategy

    # ------------------------------------------------------------------
    def display(self, query: Optional[TopologyQuery] = None) -> str:
        """Render the plan: the alternatives with their costs, then the
        operator tree when the plan carries one (an EXPLAIN).  Pass the
        concrete ``query`` to show its actual constraints."""
        lines = [f"QueryPlan[{self.method}] strategy={self.strategy}"]
        if query is not None:
            lines.append(f"  query: {query.describe()}")
        lines.append(f"  class: {self.plan_class.describe()}")
        if self.has_costs:
            lines.append("  alternatives (est x factor -> calibrated):")
            for alt in self.alternatives:
                marker = "*" if alt.strategy == self.strategy else " "
                if alt.estimated_cost is None:
                    lines.append(f"  {marker} {alt.strategy:<10} n/a")
                    continue
                lines.append(
                    f"  {marker} {alt.strategy:<10} {alt.estimated_cost:12.1f}"
                    f" x {alt.calibration_factor:<6.3f} -> {alt.calibrated_cost:12.1f}"
                )
        if self.operators is not None:
            lines.append("  operator tree:")
            lines.extend("    " + line for line in self.operators.splitlines())
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
@dataclass
class _StrategyFit:
    """Running per-strategy aggregates: geometric-mean ratio state."""

    count: int = 0
    sum_log_ratio: float = 0.0
    # Factor in force at the last version bump; drift beyond
    # DRIFT_RATIO from it triggers the next bump.
    last_applied_factor: float = 1.0


class CostCalibrator:
    """Per-strategy scale factors learned from execution feedback.

    Fits are keyed by :func:`calibration_key` — (pairs table, strategy)
    — so the full- and fast- families' different execution regimes do
    not blend into one factor (the key is opaque to this class).  Each
    observation is (estimated cost, observed work units) for the
    strategy that actually ran.  The factor applied by the planner is
    the geometric mean of observed/estimated ratios — robust to the
    abstract-unit mismatch between the cost model and the executor
    counters, and stable under skewed workloads.  ``version`` increments
    whenever a factor drifts more than :data:`DRIFT_RATIO` from the
    value cached plans were made with, so stale plans re-plan lazily."""

    MIN_OBSERVATIONS = 3
    DRIFT_RATIO = 1.25
    FACTOR_BOUNDS = (1e-3, 1e3)
    _LOG_CLAMP = 12.0

    def __init__(self) -> None:
        self._fits: Dict[str, _StrategyFit] = {}
        self.version = 0
        # record() is a read-modify-write over the fit aggregates and
        # the version; every concurrent engine execution feeds it, so
        # the whole fold happens under one lock (reads take it too — a
        # torn count/sum pair would skew the geometric mean).
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def factor(self, strategy: str) -> float:
        """Scale factor for a strategy (1.0 until enough feedback)."""
        with self._lock:
            return self._factor_locked(strategy)

    def _factor_locked(self, strategy: str) -> float:
        fit = self._fits.get(strategy)
        if fit is None or fit.count < self.MIN_OBSERVATIONS:
            return 1.0
        raw = math.exp(fit.sum_log_ratio / fit.count)
        low, high = self.FACTOR_BOUNDS
        return min(high, max(low, raw))

    def record(self, strategy: str, estimated: float, observed: float) -> None:
        """Fold one (estimated, observed) pair into the strategy's fit."""
        if estimated <= 0.0 or observed <= 0.0:
            return
        with self._lock:
            fit = self._fits.setdefault(strategy, _StrategyFit())
            fit.count += 1
            ratio = math.log(observed / estimated)
            fit.sum_log_ratio += max(-self._LOG_CLAMP, min(self._LOG_CLAMP, ratio))
            current = self._factor_locked(strategy)
            drift = current / fit.last_applied_factor
            if fit.count >= self.MIN_OBSERVATIONS and (
                drift > self.DRIFT_RATIO or drift < 1.0 / self.DRIFT_RATIO
            ):
                fit.last_applied_factor = current
                self.version += 1

    def observation_count(self, strategy: Optional[str] = None) -> int:
        with self._lock:
            if strategy is not None:
                fit = self._fits.get(strategy)
                return fit.count if fit else 0
            return sum(fit.count for fit in self._fits.values())

    def reset(self) -> None:
        with self._lock:
            self._fits.clear()
            self.version += 1

    # ------------------------------------------------------------------
    # Introspection + persistence (repro.persist stores export_state()
    # in the snapshot meta so a restored service keeps learned factors).
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "version": self.version,
                "strategies": {
                    name: {"count": fit.count, "factor": self._factor_locked(name)}
                    for name, fit in sorted(self._fits.items())
                },
            }

    def export_state(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "version": self.version,
                "strategies": {
                    name: {
                        "count": fit.count,
                        "sum_log_ratio": fit.sum_log_ratio,
                        "last_applied_factor": fit.last_applied_factor,
                    }
                    for name, fit in sorted(self._fits.items())
                },
            }

    @classmethod
    def from_state(cls, state: Optional[Dict[str, Any]]) -> "CostCalibrator":
        calibrator = cls()
        if not state:
            return calibrator
        calibrator.version = int(state.get("version", 0))
        for name, fit in state.get("strategies", {}).items():
            calibrator._fits[name] = _StrategyFit(
                count=int(fit["count"]),
                sum_log_ratio=float(fit["sum_log_ratio"]),
                last_applied_factor=float(fit.get("last_applied_factor", 1.0)),
            )
        return calibrator


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
class Planner:
    """Produces :class:`QueryPlan` objects for the nine methods.

    Owns the cost estimation: the System-R estimate of the regular
    statement (plus the final sort regular top-k plans cannot avoid,
    Section 5.2) and the Theorem-1 dynamic programs for the IDGJ/HDGJ
    stacks — with the calibrator's per-strategy factors applied before
    choosing."""

    def __init__(self, system) -> None:
        self.system = system

    @property
    def calibrator(self) -> CostCalibrator:
        return self.system.calibrator

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def classify(self, query: TopologyQuery, method) -> PlanClass:
        """The query's plan class under ``method`` (the cache key)."""
        return PlanClass(
            method=method.name,
            strategies=tuple(method.plan_strategies),
            entity1=query.entity1,
            entity2=query.entity2,
            shape1=self._shape(query.constraint1, query.entity1),
            shape2=self._shape(query.constraint2, query.entity2),
            max_length=query.max_length,
            k_bucket=k_bucket(query.k),
            ranking=query.ranking,
        )

    def _shape(self, constraint: Constraint, entity: str) -> Tuple:
        selectivity = self.system.stats.predicate_selectivity(
            constraint.to_expression("x"), {"x": entity}
        )
        return constraint_structure(constraint) + (selectivity_bucket(selectivity),)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan_for(self, method, query: TopologyQuery, with_costs: bool = False) -> QueryPlan:
        """Build the plan ``method`` should execute for ``query``.

        ``with_costs`` forces cost estimation even for methods that do
        not price their strategy on the hot path (the EXPLAIN case)."""
        strategies = tuple(method.plan_strategies)
        pairs_table = getattr(method, "pairs_table", None)
        use_pruned_store = bool(getattr(method, "use_pruned_store", False))
        cost_based = bool(getattr(method, "cost_based", False))
        costed = cost_based or bool(getattr(method, "estimates_costs", False)) or with_costs

        alternatives: List[PlanAlternative] = []
        if costed:
            et_wanted = tuple(s for s in strategies if s in ET_STRATEGIES)
            et_costs: Dict[str, float] = {}
            if et_wanted:
                et_costs = self.et_stack_costs(
                    query, use_pruned_store, query.k or DEFAULT_COST_K,
                    flavors=et_wanted,
                )
            for strategy in strategies:
                if strategy == STRATEGY_REGULAR and pairs_table is not None:
                    raw: Optional[float] = self.regular_cost(method, query)
                elif strategy in et_costs:
                    raw = et_costs[strategy]
                else:
                    raw = None
                factor = (
                    self.calibrator.factor(calibration_key(pairs_table, strategy))
                    if raw is not None
                    else 1.0
                )
                alternatives.append(PlanAlternative(strategy, raw, factor))
        else:
            alternatives = [PlanAlternative(s, None, 1.0) for s in strategies]

        strategy = self._choose(alternatives) if cost_based else strategies[0]
        return QueryPlan(
            method=method.name,
            strategy=strategy,
            plan_class=self.classify(query, method),
            alternatives=tuple(alternatives),
            pairs_table=pairs_table,
        )

    @staticmethod
    def _choose(alternatives: Sequence[PlanAlternative]) -> str:
        """Pick the cheapest calibrated alternative: ties go to the
        regular plan, and between equal ET flavors IDGJ wins."""
        by_strategy = {
            a.strategy: a.calibrated_cost
            for a in alternatives
            if a.calibrated_cost is not None
        }
        if not by_strategy:
            return alternatives[0].strategy
        et = OrderedDict(
            (s, by_strategy[s]) for s in ET_STRATEGIES if s in by_strategy
        )
        if STRATEGY_REGULAR not in by_strategy:
            if et:
                return min(et, key=et.get)
            return alternatives[0].strategy
        if not et:
            return STRATEGY_REGULAR
        best_et = min(et, key=et.get)
        if et[best_et] < by_strategy[STRATEGY_REGULAR]:
            return best_et
        return STRATEGY_REGULAR

    # ------------------------------------------------------------------
    # Cost estimation
    # ------------------------------------------------------------------
    def stack_parameters(
        self, query: TopologyQuery, use_pruned_store: bool
    ) -> Tuple[List[DgjLevel], List[float]]:
        """DGJ stack statistics (Section 5.4.3): one level per
        constrained entity table, group cardinalities in score order."""
        self.system.require_store()
        stats = self.system.stats
        # Groups arrive in score order, as the ET scan reads them;
        # Card_i = the topology's pair count (one pairs-table row per
        # related pair).
        order = self.system.et_indexes.group_order(
            self.system.store_entity_pair(query),
            score_column(query.ranking),
            use_pruned_store,
        )
        cards = [float(freq) for freq in order.values("FREQ")]

        levels: List[DgjLevel] = []
        for entity, constraint in (
            (query.entity1, query.constraint1),
            (query.entity2, query.constraint2),
        ):
            n = float(stats.row_count(entity))
            rho = stats.predicate_selectivity(
                constraint.to_expression("x"), {"x": entity}
            )
            levels.append(
                DgjLevel(
                    relation_rows=n,
                    probe_cost=C.INDEX_PROBE_COST,
                    local_selectivity=max(1e-9, min(1.0, rho)),
                    join_selectivity=1.0 / max(n, 1.0),
                )
            )
        return levels, cards

    def et_stack_costs(
        self,
        query: TopologyQuery,
        use_pruned_store: bool,
        k: int,
        flavors: Sequence[str] = ET_STRATEGIES,
    ) -> Dict[str, float]:
        """Theorem-1 expected costs for the requested DGJ flavors (the
        single-flavor ET methods skip the dynamic program they would
        discard)."""
        levels, cards = self.stack_parameters(query, use_pruned_store)
        costs: Dict[str, float] = {}
        if STRATEGY_ET_IDGJ in flavors:
            costs[STRATEGY_ET_IDGJ] = idgj_stack_cost(levels, cards, k)
        if STRATEGY_ET_HDGJ in flavors:
            costs[STRATEGY_ET_HDGJ] = hdgj_stack_cost(
                levels, cards, k, scan_row_cost=C.ROW_COST
            )
        return costs

    def regular_cost(self, method, query: TopologyQuery) -> float:
        """System-R's cost of the statement ``method`` runs for the
        regular strategy — for top-k methods the SQL4 block plus the
        final sort that regular plans cannot avoid (Section 5.2) — from
        the engine's prepared plan of it.  k is a late-bound ``FETCH``
        parameter, so a k-less query is priced with the same statement
        at :data:`DEFAULT_COST_K`."""
        params = SqlParams()
        sql = method.pairs_sql(replace(query, k=query.k or DEFAULT_COST_K), params)
        return self.system.engine.prepare(sql, params).cost
