"""The plan layer: plan classes, caching, EXPLAIN, calibration.

Covers :mod:`repro.core.plan` plus its engine/service wiring — plans as
first-class objects, the query-class cache, ``explain()`` for all nine
methods, and the observation-driven cost calibrator.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import (
    ALL_METHOD_NAMES,
    AttributeConstraint,
    ConjunctionConstraint,
    CostCalibrator,
    KeywordConstraint,
    NoConstraint,
    TopologyQuery,
)
from repro.core.methods.et import FastTopKEtMethod
from repro.core.methods.pruned import pruned_topologies
from repro.core.plan import (
    DEFAULT_COST_K,
    ET_STRATEGIES,
    STRATEGY_ET_HDGJ,
    STRATEGY_PER_TOPOLOGY,
    STRATEGY_REGULAR,
    constraint_structure,
    k_bucket,
    selectivity_bucket,
    work_units,
)
from repro.relational.operators import FirstPerGroup
from repro.relational.optimizer.system_r import SystemROptimizer
from repro.relational.runtime import columnar_enabled, columnar_mode
from repro.relational.sql.tokens import SqlParams

EXHAUSTIVE = ("sql", "full-top", "fast-top")


def make_query(keyword="human", k=5, ranking="freq"):
    return TopologyQuery(
        "Protein", "DNA",
        KeywordConstraint("DESC", keyword),
        AttributeConstraint("TYPE", "mRNA"),
        k=k, ranking=ranking,
    )


class TestPlanClassification:
    def test_k_buckets_are_powers_of_two(self):
        assert k_bucket(None) == 0
        assert [k_bucket(k) for k in (1, 2, 3, 4, 5, 8, 9)] == [1, 2, 4, 4, 8, 8, 16]

    def test_selectivity_buckets_are_orders_of_magnitude(self):
        assert selectivity_bucket(1.0) == 0
        assert selectivity_bucket(0.2) == -1
        assert selectivity_bucket(0.02) == -2
        assert selectivity_bucket(0.0) == -9  # clamped

    def test_constraint_structure_is_value_free(self):
        a = constraint_structure(KeywordConstraint("DESC", "kinase"))
        b = constraint_structure(KeywordConstraint("DESC", "binding"))
        assert a == b == ("contains", "desc")
        assert constraint_structure(NoConstraint()) == ("all",)
        conj = ConjunctionConstraint(
            (KeywordConstraint("DESC", "x"), AttributeConstraint("TYPE", "y"))
        )
        assert constraint_structure(conj) == (
            "and", ("contains", "desc"), ("cmp", "type", "="),
        )

    def test_same_shape_queries_share_a_class(self, tiny_system):
        method = tiny_system.method("fast-top-k-opt")
        planner = tiny_system.planner
        # Same keyword, different k within one power-of-two bucket.
        c1 = planner.classify(make_query(k=5), method)
        c2 = planner.classify(make_query(k=7), method)
        assert c1 == c2
        # Different ranking, k-bucket, or l -> different classes.
        assert planner.classify(make_query(ranking="rare"), method) != c1
        assert planner.classify(make_query(k=2), method) != c1

    def test_flavors_get_distinct_classes(self, tiny_system):
        idgj = FastTopKEtMethod(tiny_system, flavor="idgj")
        hdgj = FastTopKEtMethod(tiny_system, flavor="hdgj")
        query = make_query()
        assert (
            tiny_system.planner.classify(query, idgj)
            != tiny_system.planner.classify(query, hdgj)
        )


@pytest.fixture()
def stable_plans(tiny_system):
    """Pause calibration so its version bumps cannot invalidate plans
    mid-test (the shared session system accumulates observations)."""
    tiny_system.calibration_enabled = False
    tiny_system.invalidate_plans()
    try:
        yield tiny_system
    finally:
        tiny_system.calibration_enabled = True


class TestPlanCacheBehaviour:
    def test_same_class_traffic_hits_the_cache(self, stable_plans):
        system = stable_plans
        before = system.plan_cache_stats()
        system.search(make_query(k=5), "fast-top-k-opt")
        system.search(make_query(k=6), "fast-top-k-opt")
        system.search(make_query(k=7), "fast-top-k-opt")
        stats = system.plan_cache_stats()
        assert stats.hits - before.hits >= 2

    def test_cache_hit_skips_planning_work(self, stable_plans):
        system = stable_plans
        cold = system.search(make_query(k=5), "fast-top-k-opt")
        warm = system.search(make_query(k=6), "fast-top-k-opt")
        assert warm.planning_seconds < cold.planning_seconds

    def test_rebuild_invalidates_plans(self):
        from repro.biozon import BiozonConfig, generate
        from repro.core import TopologySearchSystem

        ds = generate(BiozonConfig.tiny(seed=6))
        system = TopologySearchSystem(ds.database, ds.graph())
        system.build([("Protein", "DNA")], max_length=3)
        query = TopologyQuery(
            "Protein", "DNA",
            KeywordConstraint("DESC", "human"), NoConstraint(), k=4,
        )
        system.search(query, "fast-top-k-opt")
        invalidations = system.plan_cache_stats().invalidations
        system.build([("Protein", "DNA")], max_length=3)
        system.search(query, "fast-top-k-opt")
        assert system.plan_cache_stats().invalidations > invalidations


class TestExplain:
    @pytest.mark.parametrize("method", ALL_METHOD_NAMES)
    def test_explain_works_for_every_method(self, tiny_system, method):
        query = make_query() if method not in EXHAUSTIVE else TopologyQuery(
            "Protein", "DNA",
            KeywordConstraint("DESC", "human"),
            AttributeConstraint("TYPE", "mRNA"),
        )
        plan = tiny_system.explain(query, method)
        assert plan.method == method
        assert plan.strategy in plan.plan_class.strategies
        text = plan.display(query)
        assert method in text
        assert "operator tree" in text
        # Explain prices what it can: everything but the per-topology plan.
        assert plan.has_costs is (method != "sql")

    def test_explain_shows_all_opt_alternatives(self, tiny_system):
        plan = tiny_system.explain(make_query(), "fast-top-k-opt")
        strategies = {a.strategy for a in plan.alternatives}
        assert strategies == {STRATEGY_REGULAR, *ET_STRATEGIES}
        assert all(a.estimated_cost is not None for a in plan.alternatives)
        text = plan.display()
        for s in strategies:
            assert s in text

    def test_explain_matches_executed_plan(self, tiny_system):
        query = make_query(keyword="kinase", k=4)
        explained = tiny_system.explain(query, "fast-top-k-opt")
        executed = tiny_system.search(query, "fast-top-k-opt").plan
        assert executed.strategy == explained.strategy
        assert executed.plan_class == explained.plan_class

    def test_sql_method_plan_is_costless_but_displayable(self, tiny_system):
        query = TopologyQuery(
            "Protein", "DNA",
            KeywordConstraint("DESC", "human"),
            AttributeConstraint("TYPE", "mRNA"),
        )
        plan = tiny_system.explain(query, "sql")
        assert plan.strategy == STRATEGY_PER_TOPOLOGY
        assert plan.estimated_cost is None
        assert "ForEach" in plan.display()

    @pytest.mark.parametrize("method", ["full-top", "fast-top-k"])
    def test_regular_tree_is_the_engines_plan_of_the_statement(self, stable_plans, method):
        query = make_query(keyword="kinase", k=None if method == "full-top" else 4)
        instance = stable_plans.method(method)
        params = SqlParams()
        tree = stable_plans.engine.explain(instance.pairs_sql(query, params), params)
        if instance.use_pruned_store:
            count = len(pruned_topologies(stable_plans, query))
            tree += f"\nPrunedChecks(topologies={count}, merged by score)"
        assert stable_plans.explain(query, method).operators == tree

    def test_regular_tree_shows_every_predicate(self, fig3_system):
        """On the Figure-3 store the DNA constraint is an index join's
        residual, not a Filter: the tree must still print it."""
        query = TopologyQuery(
            "Protein", "DNA",
            KeywordConstraint("DESC", "enzyme"),
            AttributeConstraint("TYPE", "mRNA"),
            k=2, ranking="rare",
        )
        tree = fig3_system.explain(query, "fast-top-k").operators
        assert "(ColumnRef(q2.type) = Literal('mRNA'))" in tree
        assert "ColumnRef(q1.desc), Literal('enzyme')" in tree

    @pytest.mark.parametrize("flavor", ["idgj", "hdgj"])
    def test_et_tree_is_the_stack_under_first_per_group(self, tiny_system, flavor):
        query = make_query(keyword="kinase", k=4)
        stack = FastTopKEtMethod(tiny_system, flavor=flavor).build_stack(query)
        tree = FirstPerGroup(stack, None).explain()
        if flavor == "idgj" and columnar_enabled():
            tree += "\nruns as one IDGJProbe (columnar mode)"
        count = len(pruned_topologies(tiny_system, query))
        tree += f"\nPrunedChecks(topologies={count}, merged by score)"
        if flavor == "idgj":
            explained = tiny_system.explain(query, "fast-top-k-et").operators
        else:
            opt = tiny_system.method("fast-top-k-opt")
            explained = opt.operator_tree(STRATEGY_ET_HDGJ, query)
        assert explained == tree

    def test_cached_and_executed_plans_carry_no_tree(self, stable_plans):
        query = make_query(keyword="kinase", k=4)
        executed = stable_plans.search(query, "fast-top-k-opt").plan
        cached = stable_plans.plan_query(query, stable_plans.method("fast-top-k-opt"))
        assert executed.operators is None and cached.operators is None
        assert "operator tree" not in executed.display()
        assert stable_plans.explain(query, "fast-top-k-opt").operators is not None

    def test_explaining_a_cold_class_reuses_the_priced_statement(
        self, stable_plans, monkeypatch
    ):
        runs = []
        optimize = SystemROptimizer.optimize

        def counting(self, *args, **kwargs):
            runs.append(args[0])
            return optimize(self, *args, **kwargs)

        monkeypatch.setattr(SystemROptimizer, "optimize", counting)
        stable_plans.engine.clear_plan_cache()
        with columnar_mode():
            stable_plans.explain(make_query(keyword="binding", k=3), "full-top-k")
        assert len(runs) == 1


def regular_estimate(plan):
    return next(
        a.estimated_cost for a in plan.alternatives if a.strategy == STRATEGY_REGULAR
    )


def statement_cost(system, method, query):
    """The engine's estimate of the statement ``method`` runs."""
    params = SqlParams()
    sql = system.method(method).pairs_sql(query, params)
    return system.engine.prepare(sql, params).cost


class TestRegularPrice:
    """The regular strategy is priced from the prepared plan of the
    statement that runs it: no second planning of its join block."""

    @pytest.mark.parametrize("method", ["full-top-k", "fast-top-k", "fast-top-k-opt"])
    def test_estimate_is_the_statement_cost(self, stable_plans, method):
        query = make_query(keyword="kinase", k=4)
        plan = stable_plans.search(query, method).plan
        assert regular_estimate(plan) == statement_cost(stable_plans, method, query)

    def test_explain_of_an_exhaustive_method_prices_its_statement(self, tiny_system):
        query = dataclasses.replace(make_query(), k=None)
        plan = tiny_system.explain(query, "fast-top")
        assert regular_estimate(plan) == statement_cost(tiny_system, "fast-top", query)

    def test_a_k_less_explain_prices_the_default_k(self, stable_plans):
        query = dataclasses.replace(make_query(), k=None)
        plan = stable_plans.explain(query, "fast-top-k")
        priced = dataclasses.replace(query, k=DEFAULT_COST_K)
        assert regular_estimate(plan) == statement_cost(stable_plans, "fast-top-k", priced)

    def test_a_cold_class_runs_system_r_once(self, stable_plans, monkeypatch):
        """Pricing prepares the statement that the execution then finds
        in the statement cache."""
        runs = []
        optimize = SystemROptimizer.optimize

        def counting(self, *args, **kwargs):
            runs.append(args[0])
            return optimize(self, *args, **kwargs)

        monkeypatch.setattr(SystemROptimizer, "optimize", counting)
        stable_plans.engine.clear_plan_cache()
        with columnar_mode():
            stable_plans.search(make_query(keyword="binding", k=3), "full-top-k")
        assert len(runs) == 1


class TestCostCalibrator:
    def test_factor_is_geometric_mean_of_ratios(self):
        calibrator = CostCalibrator()
        for observed in (200.0, 800.0, 400.0):  # estimates of 100 each
            calibrator.record("et-idgj", 100.0, observed)
        # geometric mean of (2, 8, 4) = 4
        assert calibrator.factor("et-idgj") == pytest.approx(4.0)
        assert calibrator.factor("regular") == 1.0  # no observations

    def test_factor_needs_minimum_observations(self):
        calibrator = CostCalibrator()
        calibrator.record("regular", 100.0, 1000.0)
        calibrator.record("regular", 100.0, 1000.0)
        assert calibrator.factor("regular") == 1.0
        calibrator.record("regular", 100.0, 1000.0)
        assert calibrator.factor("regular") == pytest.approx(10.0)

    def test_version_bumps_on_drift(self):
        calibrator = CostCalibrator()
        v0 = calibrator.version
        for _ in range(3):
            calibrator.record("et-hdgj", 100.0, 1000.0)
        assert calibrator.version > v0

    def test_ignores_degenerate_observations(self):
        calibrator = CostCalibrator()
        calibrator.record("regular", 0.0, 10.0)
        calibrator.record("regular", 10.0, 0.0)
        assert calibrator.observation_count("regular") == 0

    def test_state_round_trip(self):
        calibrator = CostCalibrator()
        for i in range(4):
            calibrator.record("et-idgj", 100.0, 300.0 + i)
        restored = CostCalibrator.from_state(calibrator.export_state())
        assert restored.factor("et-idgj") == pytest.approx(
            calibrator.factor("et-idgj")
        )
        assert restored.version == calibrator.version
        assert restored.observation_count() == calibrator.observation_count()
        assert CostCalibrator.from_state(None).observation_count() == 0

    def test_work_units_weight_counters(self):
        assert work_units({}) == 0.0
        assert work_units({"rows_scanned": 10}) == pytest.approx(10.0)
        assert work_units({"index_probes": 5}) == pytest.approx(10.0)
        assert work_units({"unknown_counter": 99}) == 0.0


class TestCalibrationFeedbackLoop:
    @pytest.fixture()
    def fresh_system(self):
        from repro.biozon import BiozonConfig, generate
        from repro.core import TopologySearchSystem

        ds = generate(BiozonConfig.tiny(seed=12))
        system = TopologySearchSystem(ds.database, ds.graph())
        system.build([("Protein", "DNA")], max_length=3)
        return system

    def test_executions_feed_the_calibrator(self, fresh_system):
        query = TopologyQuery(
            "Protein", "DNA",
            KeywordConstraint("DESC", "human"), NoConstraint(), k=4,
        )
        result = fresh_system.search(query, "fast-top-k-et")
        assert result.plan.estimated_cost is not None
        assert result.plan.calibration_key == "LeftTops:et-idgj"
        assert (
            fresh_system.calibrator.observation_count("LeftTops:et-idgj") == 1
        )

    def test_explain_forced_costs_do_not_feed_calibration(self, fresh_system):
        """EXPLAIN of a method that does not price its plan on the hot
        path costs the plan outside the cache: the plan shows costs, the
        cache does not move, and the next execution — planned uncosted
        — feeds the calibrator nothing."""
        query = TopologyQuery(
            "Protein", "DNA",
            KeywordConstraint("DESC", "human"), NoConstraint(),
        )

        def counters():
            stats = fresh_system.plan_cache_stats()
            return stats.hits, stats.misses, stats.size

        before = counters()
        plan = fresh_system.explain(query, "fast-top")
        assert plan.estimated_cost is not None
        assert counters() == before
        fresh_system.search(query, "fast-top")
        assert fresh_system.calibrator.observation_count() == 0

    def test_restoring_the_same_version_still_drops_plans(self, fresh_system):
        """A restored calibrator can repeat the current version number
        with different factors, which the (generation, version) stamp
        cannot tell apart: ``restore_calibration`` must clear the plan
        cache itself."""
        query = TopologyQuery(
            "Protein", "DNA",
            KeywordConstraint("DESC", "human"), NoConstraint(), k=4,
        )
        fresh_system.search(query, "fast-top-k-opt")
        state = fresh_system.calibrator.export_state()
        assert state["version"] == fresh_system.calibrator.version
        assert fresh_system.plan_cache_stats().size == 1
        fresh_system.restore_calibration(state)
        assert fresh_system.plan_cache_stats().size == 0

    def test_calibration_can_be_disabled(self, fresh_system):
        fresh_system.calibration_enabled = False
        query = TopologyQuery(
            "Protein", "DNA",
            KeywordConstraint("DESC", "human"), NoConstraint(), k=4,
        )
        fresh_system.search(query, "fast-top-k-et")
        assert fresh_system.calibrator.observation_count() == 0

    def test_calibration_flips_a_mispriced_choice(self, fresh_system):
        """Force a large learned penalty onto the strategy the planner
        would otherwise pick; the next planning round must avoid it."""
        system = fresh_system
        query = TopologyQuery(
            "Protein", "DNA",
            KeywordConstraint("DESC", "human"), NoConstraint(), k=4,
        )
        plan = system.explain(query, "fast-top-k-opt")
        chosen = plan.strategy
        estimated = plan.estimated_cost
        # Report the chosen strategy as 1000x more expensive than priced.
        for _ in range(CostCalibrator.MIN_OBSERVATIONS):
            system.calibrator.record(
                plan.calibration_key, estimated, estimated * 1000.0
            )
        system.invalidate_plans()
        recalibrated = system.explain(query, "fast-top-k-opt")
        assert recalibrated.strategy != chosen
        # Answers are unchanged either way.
        assert (
            system.search(query, "fast-top-k-opt").tids
            == system.search(query, "full-top-k").tids
        )


class TestSqlQuoting:
    def test_shared_helper_escapes(self):
        from repro.relational.sql import sql_quote, tokenize

        assert sql_quote("O'Brien") == "'O''Brien'"
        assert sql_quote(None) == "NULL"
        assert sql_quote(True) == "TRUE"
        assert sql_quote(7) == "7"
        # The escaped literal round-trips through the tokenizer.
        tokens = tokenize(f"SELECT {sql_quote(chr(39) + 'start')}")
        assert tokens[1].value == "'start"
