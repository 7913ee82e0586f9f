"""Cross-method equivalence on synthetic data (the central correctness
property): every method must agree with the Definition-3 reference and
with each other, for both orientations, all rankings, and several k."""

from __future__ import annotations

import pytest

from repro.core import (
    AttributeConstraint,
    KeywordConstraint,
    NoConstraint,
    TopologyQuery,
    topology_result,
)

TOPK_METHODS = [
    "full-top-k",
    "fast-top-k",
    "full-top-k-et",
    "fast-top-k-et",
    "full-top-k-opt",
    "fast-top-k-opt",
]


def reference_tids(system, dataset, query):
    """Definition-3 reference evaluation."""
    db = dataset.database
    graph = system.graph
    t1 = db.table(query.entity1)
    layout1 = [(query.entity1.lower(), c.name) for c in t1.schema.columns]
    from repro.relational.expressions import RowLayout

    fn1 = query.constraint1.to_expression(query.entity1.lower()).bind(
        RowLayout(layout1)
    )
    set_a = [r[0] for r in t1.rows if fn1(r) is True]
    t2 = db.table(query.entity2)
    layout2 = [(query.entity2.lower(), c.name) for c in t2.schema.columns]
    fn2 = query.constraint2.to_expression(query.entity2.lower()).bind(
        RowLayout(layout2)
    )
    set_b = [r[0] for r in t2.rows if fn2(r) is True]
    result = topology_result(graph, set_a, set_b, query.max_length)
    pair = system.store_entity_pair(query)
    store = system.require_store()
    return sorted(store.tid_of(key, pair) for key in result)


QUERIES = [
    TopologyQuery(
        "Protein", "DNA",
        KeywordConstraint("DESC", "human"),
        AttributeConstraint("TYPE", "mRNA"),
    ),
    TopologyQuery(
        "Protein", "DNA",
        KeywordConstraint("DESC", "kinase"),
        NoConstraint(),
    ),
    TopologyQuery(
        "Protein", "Interaction",
        KeywordConstraint("DESC", "binding"),
        KeywordConstraint("DESC", "direct"),
    ),
    # Reversed orientation relative to the build() pair list.
    TopologyQuery(
        "DNA", "Protein",
        AttributeConstraint("TYPE", "EST"),
        NoConstraint(),
    ),
    TopologyQuery(
        "Interaction", "Protein",
        NoConstraint(),
        KeywordConstraint("DESC", "human"),
    ),
]


class TestExhaustiveMethods:
    @pytest.mark.parametrize("qidx", range(len(QUERIES)))
    def test_full_top_matches_reference(self, tiny_system, tiny_dataset, qidx):
        query = QUERIES[qidx]
        expected = reference_tids(tiny_system, tiny_dataset, query)
        result = tiny_system.search(query, "full-top")
        assert result.tids == expected

    @pytest.mark.parametrize("qidx", range(len(QUERIES)))
    def test_fast_top_matches_full_top(self, tiny_system, qidx):
        query = QUERIES[qidx]
        assert (
            tiny_system.search(query, "fast-top").tids
            == tiny_system.search(query, "full-top").tids
        )

    def test_sql_method_matches(self, tiny_system, tiny_dataset):
        query = QUERIES[0]
        expected = reference_tids(tiny_system, tiny_dataset, query)
        assert tiny_system.search(query, "sql").tids == expected


class TestTopKMethods:
    @pytest.mark.parametrize("method", TOPK_METHODS[1:])
    @pytest.mark.parametrize("ranking", ["freq", "rare", "domain"])
    def test_agree_with_full_top_k(self, tiny_system, method, ranking):
        query = TopologyQuery(
            "Protein", "DNA",
            KeywordConstraint("DESC", "human"),
            AttributeConstraint("TYPE", "mRNA"),
            k=7, ranking=ranking,
        )
        reference = tiny_system.search(query, "full-top-k")
        result = tiny_system.search(query, method)
        assert result.tids == reference.tids
        assert result.scores == pytest.approx(reference.scores)

    @pytest.mark.parametrize("k", [1, 3, 10, 1000])
    def test_varying_k(self, tiny_system, k):
        query = TopologyQuery(
            "Protein", "Interaction",
            KeywordConstraint("DESC", "binding"),
            NoConstraint(),
            k=k, ranking="rare",
        )
        reference = tiny_system.search(query, "full-top-k")
        for method in TOPK_METHODS[1:]:
            assert tiny_system.search(query, method).tids == reference.tids

    def test_topk_is_prefix_of_larger_k(self, tiny_system):
        small = TopologyQuery(
            "Protein", "DNA",
            KeywordConstraint("DESC", "human"), NoConstraint(),
            k=3, ranking="freq",
        )
        large = TopologyQuery(
            "Protein", "DNA",
            KeywordConstraint("DESC", "human"), NoConstraint(),
            k=8, ranking="freq",
        )
        s = tiny_system.search(small, "fast-top-k").tids
        l = tiny_system.search(large, "fast-top-k").tids
        assert l[: len(s)] == s

    def test_topk_subset_of_exhaustive(self, tiny_system):
        query_all = QUERIES[0]
        query_k = TopologyQuery(
            query_all.entity1, query_all.entity2,
            query_all.constraint1, query_all.constraint2,
            k=5, ranking="domain",
        )
        all_tids = set(tiny_system.search(query_all, "full-top").tids)
        top = tiny_system.search(query_k, "fast-top-k-et").tids
        assert set(top) <= all_tids

    def test_scores_descending(self, tiny_system):
        query = TopologyQuery(
            "Protein", "DNA",
            NoConstraint(), NoConstraint(),
            k=10, ranking="rare",
        )
        result = tiny_system.search(query, "fast-top-k-et")
        assert result.scores == sorted(result.scores, reverse=True)

    @pytest.mark.parametrize("flavor", ["idgj", "hdgj"])
    def test_et_flavors_agree(self, tiny_system, flavor):
        from repro.core.methods.et import FastTopKEtMethod

        query = TopologyQuery(
            "Protein", "DNA",
            KeywordConstraint("DESC", "human"),
            AttributeConstraint("TYPE", "mRNA"),
            k=6, ranking="freq",
        )
        reference = tiny_system.search(query, "full-top-k").tids
        method = FastTopKEtMethod(tiny_system, flavor=flavor)
        assert method.run(query).tids == reference


@pytest.fixture(scope="module")
def all_pruned_systems(tmp_path_factory):
    """A store whose pruning removes every topology (LeftTops empty),
    as built and as restored from its snapshot."""
    from repro.biozon import BiozonConfig, generate
    from repro.core import TopologySearchSystem
    from repro.persist import load_system, save_system

    dataset = generate(BiozonConfig(seed=3, n_proteins=60))
    system = TopologySearchSystem(dataset.database, dataset.graph())
    system.build([("Protein", "DNA")], max_length=3, prune_threshold=0)
    store = system.require_store()
    assert store.pruned_tids == set(store.topologies) != set()
    path = str(tmp_path_factory.mktemp("all_pruned") / "system.topo")
    save_system(system, path)
    return {"built": system, "restored": load_system(path)}


class TestAllPrunedStore:
    @pytest.mark.parametrize("which", ["built", "restored"])
    def test_lefttops_is_empty(self, all_pruned_systems, which):
        system = all_pruned_systems[which]
        assert system.database.table("LeftTops").row_count == 0

    @pytest.mark.parametrize("which", ["built", "restored"])
    @pytest.mark.parametrize("ranking", ["freq", "rare", "domain"])
    def test_topk_methods_agree_with_full_top_k(
        self, all_pruned_systems, which, ranking
    ):
        system = all_pruned_systems[which]
        for constraint in (NoConstraint(), KeywordConstraint("DESC", "human")):
            for k in (1, 5, 1000):
                query = TopologyQuery(
                    "Protein", "DNA", constraint, NoConstraint(),
                    k=k, ranking=ranking,
                )
                reference = system.search(query, "full-top-k").tids
                assert reference
                for method in TOPK_METHODS[1:]:
                    assert system.search(query, method).tids == reference, method


class TestMethodBehaviour:
    def test_et_does_less_work_for_small_k(self, tiny_system):
        query_small = TopologyQuery(
            "Protein", "DNA", NoConstraint(), NoConstraint(), k=1, ranking="freq"
        )
        query_large = TopologyQuery(
            "Protein", "DNA", NoConstraint(), NoConstraint(), k=50, ranking="freq"
        )
        small = tiny_system.search(query_small, "fast-top-k-et")
        large = tiny_system.search(query_large, "fast-top-k-et")
        assert small.work["index_probes"] <= large.work["index_probes"]

    def test_opt_reports_structured_plan(self, tiny_system):
        query = TopologyQuery(
            "Protein", "DNA",
            KeywordConstraint("DESC", "human"), NoConstraint(),
            k=5, ranking="freq",
        )
        result = tiny_system.search(query, "fast-top-k-opt")
        plan = result.plan
        assert plan is not None
        assert plan.strategy in ("regular", "et-idgj", "et-hdgj")
        # All three alternatives were priced; the chosen one is cheapest
        # by calibrated cost (ties go to the regular plan).
        costs = {a.strategy: a.calibrated_cost for a in plan.alternatives}
        assert set(costs) == {"regular", "et-idgj", "et-hdgj"}
        assert all(c is not None for c in costs.values())
        assert costs[plan.strategy] == min(costs.values())
        # The derived free-text label survives for backward compatibility.
        assert result.plan_choice is not None
        assert result.plan_choice.startswith(plan.strategy)

    def test_unbuilt_pair_rejected(self, tiny_system):
        from repro.errors import TopologyError

        query = TopologyQuery("Family", "Pathway", NoConstraint(), NoConstraint())
        with pytest.raises(TopologyError):
            tiny_system.search(query, "full-top")

    def test_wrong_l_rejected(self, tiny_system):
        from repro.errors import TopologyError

        query = TopologyQuery(
            "Protein", "DNA", NoConstraint(), NoConstraint(), max_length=2
        )
        with pytest.raises(TopologyError):
            tiny_system.search(query, "full-top")

    def test_unknown_method_rejected(self, tiny_system):
        from repro.errors import TopologyError

        query = QUERIES[0]
        with pytest.raises(TopologyError):
            tiny_system.search(query, "quantum-top")

    def test_work_counters_populated(self, tiny_system):
        result = tiny_system.search(QUERIES[0], "full-top")
        assert result.work["rows_scanned"] >= 0
        assert result.elapsed_seconds >= 0

    def test_empty_result_when_no_matches(self, tiny_system):
        query = TopologyQuery(
            "Protein", "DNA",
            KeywordConstraint("DESC", "zzz_no_such_keyword"),
            NoConstraint(),
        )
        assert tiny_system.search(query, "full-top").tids == []
        assert tiny_system.search(query, "fast-top").tids == []
        qk = TopologyQuery(
            "Protein", "DNA",
            KeywordConstraint("DESC", "zzz_no_such_keyword"),
            NoConstraint(), k=5,
        )
        assert tiny_system.search(qk, "fast-top-k-et").tids == []

    def test_apostrophe_values_render_safely(self, tiny_system):
        """Constraint values with embedded quotes must be escaped, not
        break (or alter) the generated SQL."""
        query = TopologyQuery(
            "Protein", "DNA",
            KeywordConstraint("DESC", "o'brien's"),
            AttributeConstraint("TYPE", "5'-mRNA'"),
        )
        assert tiny_system.search(query, "full-top").tids == []
        assert tiny_system.search(query, "fast-top").tids == []
        qk = TopologyQuery(
            "Protein", "DNA",
            KeywordConstraint("DESC", "it's"), NoConstraint(), k=3,
        )
        assert tiny_system.search(qk, "full-top-k").tids == []


class TestCalibratedOptQuality:
    """Satellite: the calibrated planner's choices must be at least as
    good — measured by *observed* work — as the uncalibrated ones, and
    calibration must never change answers."""

    @pytest.fixture()
    def fresh_system(self):
        from repro.biozon import BiozonConfig, generate
        from repro.core import TopologySearchSystem

        ds = generate(BiozonConfig.tiny(seed=11))
        system = TopologySearchSystem(ds.database, ds.graph())
        system.build([("Protein", "DNA"), ("Protein", "Interaction")], max_length=3)
        return system

    @staticmethod
    def _workload():
        keywords = ["human", "kinase", "binding", "putative", "conserved"]
        queries = []
        for i, keyword in enumerate(keywords):
            queries.append(
                TopologyQuery(
                    "Protein", "DNA",
                    KeywordConstraint("DESC", keyword), NoConstraint(),
                    k=3 + (i % 3), ranking=("freq", "rare")[i % 2],
                )
            )
        return queries

    @staticmethod
    def _observed_work(system, query):
        """Observed work units per strategy, via the direct methods."""
        from repro.core.methods.et import FastTopKEtMethod
        from repro.core.plan import work_units

        observed = {}
        observed["regular"] = work_units(system.search(query, "fast-top-k").work)
        for flavor in ("idgj", "hdgj"):
            method = FastTopKEtMethod(system, flavor=flavor)
            observed[f"et-{flavor}"] = work_units(method.run(query).work)
        return observed

    def test_calibration_never_hurts_choice_quality(self, fresh_system):
        system = fresh_system
        workload = self._workload()
        before = {
            id(q): system.explain(q, "fast-top-k-opt").strategy for q in workload
        }
        # Execute every strategy once per query: this is the feedback
        # the calibrator learns from, and the ground truth we score
        # choices against.
        observed = {id(q): self._observed_work(system, q) for q in workload}
        assert system.calibrator.observation_count() > 0
        system.invalidate_plans()
        after = {
            id(q): system.explain(q, "fast-top-k-opt").strategy for q in workload
        }

        def optimal_choices(choices):
            return sum(
                1
                for q in workload
                if observed[id(q)][choices[id(q)]] <= min(observed[id(q)].values())
            )

        assert optimal_choices(after) >= optimal_choices(before)

    def test_all_methods_identical_after_calibration(self, fresh_system):
        system = fresh_system
        workload = self._workload()
        for query in workload:
            self._observed_work(system, query)  # feed the calibrator
        system.invalidate_plans()
        for query in workload:
            reference = system.search(query, "full-top-k")
            for method in TOPK_METHODS[1:]:
                result = system.search(query, method)
                assert result.tids == reference.tids, method
                assert result.scores == pytest.approx(reference.scores), method
