"""The single-caller serving contract of :class:`TopologyServer`: result
caching, invalidation, batching, latency, plan visibility (the LRU
itself is ``tests/test_cache.py``)."""

from __future__ import annotations

import pytest

from repro.biozon import BiozonConfig, generate
from repro.core import (
    AttributeConstraint,
    KeywordConstraint,
    NoConstraint,
    TopologyQuery,
    TopologySearchSystem,
)
from repro.service import TopologyServer


def make_query(keyword: str = "kinase", k: int = 4, ranking: str = "rare"):
    return TopologyQuery(
        "Protein",
        "DNA",
        KeywordConstraint("DESC", keyword),
        AttributeConstraint("TYPE", "mRNA"),
        k=k,
        ranking=ranking,
    )


@pytest.fixture()
def mutable_system():
    """A private system (the session fixtures are shared read-only)."""
    ds = generate(BiozonConfig.tiny(seed=5))
    system = TopologySearchSystem(ds.database, ds.graph())
    system.build([("Protein", "DNA")], max_length=3)
    return system


class TestServiceCaching:
    def test_repeat_query_served_from_cache(self, tiny_system):
        service = TopologyServer(tiny_system)
        query = make_query()
        first = service.query(query)
        second = service.query(query)
        assert second is first  # the very same result object
        stats = service.cache_stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_cache_key_covers_method_k_and_ranking(self, tiny_system):
        service = TopologyServer(tiny_system)
        base = make_query()
        service.query(base)
        service.query(base, method="full-top-k")       # different method
        service.query(make_query(k=2))                 # different k
        service.query(make_query(ranking="freq"))      # different ranking
        service.query(make_query(keyword="binding"))   # different constraint
        stats = service.cache_stats()
        assert stats.hits == 0
        assert stats.misses == 5

    def test_method_name_is_case_insensitive(self, tiny_system):
        service = TopologyServer(tiny_system)
        query = make_query()
        service.query(query, method="Fast-Top-K-Opt")
        service.query(query, method="fast-top-k-opt")
        assert service.cache_stats().hits == 1

    def test_query_many_deduplicates(self, tiny_system):
        service = TopologyServer(tiny_system)
        q1, q2 = make_query(), make_query(keyword="binding")
        results = service.query_many([q1, q2, q1, q2, q1])
        assert len(results) == 5
        assert results[0] is results[2] is results[4]
        stats = service.cache_stats()
        assert stats.misses == 2
        assert stats.hits == 3

    def test_lru_eviction_in_service(self, tiny_system):
        service = TopologyServer(tiny_system, cache_size=2)
        queries = [make_query(k) for k in ("kinase", "binding", "human")]
        for q in queries:
            service.query(q)
        service.query(queries[0])  # evicted by the third insert
        assert service.cache_stats().misses == 4

    def test_correct_results_under_caching(self, tiny_system):
        service = TopologyServer(tiny_system)
        query = make_query()
        direct = tiny_system.search(query, method="fast-top-k-opt")
        assert service.query(query).tids == direct.tids
        assert service.query(query).tids == direct.tids


class TestInvalidation:
    def test_rebuild_through_service_invalidates(self, mutable_system):
        service = TopologyServer(mutable_system)
        query = make_query()
        before = service.query(query)
        report = service.rebuild()
        assert report.alltops.distinct_topologies > 0
        after = service.query(query)
        assert after is not before
        assert after.tids == before.tids  # same data -> same answer
        assert service.cache_stats().hits == 0

    def test_rebuild_reuses_built_pairs(self, mutable_system):
        service = TopologyServer(mutable_system)
        service.rebuild()
        assert service.generation == 2
        assert service.system.built_pairs == [("Protein", "DNA")]

    def test_rebuild_preserves_max_length(self):
        ds = generate(BiozonConfig.tiny(seed=9))
        system = TopologySearchSystem(ds.database, ds.graph())
        system.build([("Protein", "DNA")], max_length=2)
        service = TopologyServer(system)
        query = make_query()  # default max_length=3 -> must be rejected
        service.rebuild()
        assert service.system.max_length == 2  # not reset to build()'s default 3
        service.rebuild(max_length=3)  # explicit override still wins
        assert service.system.max_length == 3
        assert service.query(query).tids is not None

    def test_explicit_invalidate(self, tiny_system):
        service = TopologyServer(tiny_system)
        query = make_query()
        service.query(query)
        service.invalidate()
        assert service.cache_stats().size == 0
        service.query(query)
        assert service.cache_stats().misses == 2


class TestLatencyStats:
    def test_only_engine_executions_are_recorded(self, tiny_system):
        service = TopologyServer(tiny_system)
        query = make_query()
        for _ in range(5):
            service.query(query)
        stats = service.latency_stats()["fast-top-k-opt"]
        assert stats["count"] == 1  # four cache hits
        assert stats["mean_seconds"] > 0
        assert stats["min_seconds"] <= stats["p50_seconds"] <= stats["max_seconds"]

    def test_per_method_breakdown(self, tiny_system):
        service = TopologyServer(tiny_system)
        query = make_query()
        service.query(query, method="full-top-k")
        service.query(query, method="fast-top-k")
        assert set(service.latency_stats()) >= {"full-top-k", "fast-top-k"}

    def test_reset(self, tiny_system):
        service = TopologyServer(tiny_system)
        service.query(make_query())
        service.reset_latency_stats()
        assert service.latency_stats() == {}


class TestServicePersistence:
    def test_service_round_trip_through_snapshot(self, tiny_system, tmp_path):
        service = TopologyServer(tiny_system)
        query = make_query()
        expected = service.query(query).tids
        path = tmp_path / "svc.topo"
        service.save(path)
        restored = TopologyServer.from_snapshot(path, cache_size=16)
        assert restored.query(query).tids == expected
        assert restored.query(query).tids == expected
        assert restored.cache_stats().hits == 1


class TestPlanVisibility:
    def test_explain_returns_plan_without_executing(self, tiny_system):
        service = TopologyServer(tiny_system)
        plan = service.explain(make_query())
        assert plan.method == "fast-top-k-opt"
        assert plan.has_costs
        assert "operator tree" in plan.display()
        # explain() must not populate the result cache.
        assert service.cache_stats().size == 0

    def test_explain_respects_method_argument(self, tiny_system):
        service = TopologyServer(tiny_system)
        plan = service.explain(make_query(), method="Fast-Top-K-ET")
        assert plan.method == "fast-top-k-et"
        assert plan.strategy == "et-idgj"

    def test_plan_cache_stats_exposed(self, tiny_system):
        service = TopologyServer(tiny_system)
        tiny_system.invalidate_plans()
        service.query(make_query(k=5))
        service.query(make_query(k=6))  # same plan class, new result key
        stats = service.plan_cache_stats()
        assert stats.requests >= 2
        assert stats.capacity > 0
        assert service.cache_stats().misses >= 2  # distinct result keys

    def test_calibration_stats_exposed(self, mutable_system):
        service = TopologyServer(mutable_system)
        service.query(make_query())
        stats = service.calibration_stats()
        assert "strategies" in stats and "version" in stats
        assert sum(s["count"] for s in stats["strategies"].values()) >= 1
