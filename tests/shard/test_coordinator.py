"""Scatter-gather coordinator: answer equality, caching, failure modes,
and all-or-nothing rebuild."""

from __future__ import annotations

import threading

import pytest

from repro.core import (
    ALL_METHOD_NAMES,
    AttributeConstraint,
    KeywordConstraint,
    NoConstraint,
    TopologyQuery,
)
from repro.core.methods import MethodResult
from repro.errors import ShardError, ShardUnavailableError, TopologyError
from repro.persist import load_system
from repro.service import ShardCoordinator
from repro.service.http import TestClient, create_app
from repro.shard import split_system

EXHAUSTIVE_METHODS = ("sql", "full-top", "fast-top")
NUM_SHARDS = 4  # matches the session split in conftest.py


def query_for(method: str, keyword: str = "kinase") -> TopologyQuery:
    """A method-appropriate Protein-DNA query (top-k methods need k)."""
    if method in EXHAUSTIVE_METHODS:
        return TopologyQuery(
            "Protein", "DNA", KeywordConstraint("DESC", keyword), NoConstraint()
        )
    return TopologyQuery(
        "Protein",
        "DNA",
        KeywordConstraint("DESC", keyword),
        AttributeConstraint("TYPE", "mRNA"),
        k=4,
        ranking="rare",
    )


class TestAnswerEquality:
    @pytest.mark.parametrize("method", ALL_METHOD_NAMES)
    def test_all_nine_methods_match_unsharded(
        self, coordinator, tiny_system, method
    ):
        query = query_for(method)
        reference = tiny_system.search(query, method=method)
        merged = coordinator.query(query, method=method)
        assert merged.tids == reference.tids
        assert merged.scores == reference.scores
        assert merged.method == method

    def test_exhaustive_method_with_k_merges_ranked(
        self, coordinator, tiny_system
    ):
        """Exhaustive methods rank-and-cut when the query carries k; a
        tid-union merge of per-shard top-4s would return too many tids
        and drop the scores."""
        query = TopologyQuery(
            "Protein",
            "DNA",
            KeywordConstraint("DESC", "binding"),
            NoConstraint(),
            k=4,
            ranking="freq",
        )
        reference = tiny_system.search(query, method="sql")
        merged = coordinator.query(query, method="sql")
        assert merged.tids == reference.tids
        assert merged.scores == reference.scores

    def test_second_entity_pair(self, coordinator, tiny_system):
        query = TopologyQuery(
            "Protein",
            "Interaction",
            KeywordConstraint("DESC", "human"),
            KeywordConstraint("DESC", "physical"),
            k=5,
            ranking="domain",
        )
        reference = tiny_system.search(query)
        merged = coordinator.query(query)
        assert merged.tids == reference.tids
        assert merged.scores == reference.scores

    def test_merged_work_counters_account_all_shards(self, coordinator):
        query = query_for("fast-top-k", keyword="membrane")
        merged = coordinator.query(query, method="fast-top-k")
        assert merged.work["shards"] == NUM_SHARDS
        assert merged.generation == coordinator.generation

    def test_shard_digests_match_the_files(self, coordinator):
        """What the worker processes serve is byte-for-byte what the
        manifest names — the live half of the losslessness proof."""
        expected = [
            load_system(path).require_store().state_digest()
            for path in coordinator.manifest.shard_paths
        ]
        assert coordinator.shard_digests() == expected


class TestCachingAndStats:
    def test_cache_and_coalescing_invariants(self, fresh_coordinator):
        coord = fresh_coordinator
        query = query_for("fast-top-k-opt", keyword="human")
        first = coord.query(query)
        assert coord.query(query) is first  # LRU hit returns the object
        repeated = coord.query_many([query, query, query_for("fast-top-k-opt")])
        assert repeated[0] is first and repeated[1] is first
        stats = coord.stats()
        assert stats.generation == 1
        assert stats.requests == 5
        cache = stats.result_cache
        assert cache.hits + cache.misses == stats.requests
        assert cache.misses == stats.executions + stats.coalesced
        assert stats.executions == 2  # two distinct queries scattered
        assert stats.failures == 0 and stats.in_flight == 0

    def test_query_many_dedups_inside_the_batch(self, fresh_coordinator):
        coord = fresh_coordinator
        a, b = query_for("full-top-k", "kinase"), query_for("full-top-k", "human")
        results = coord.query_many([a, b, a, a], method="full-top-k")
        assert results[0] is results[2] is results[3]
        assert results[1] is not results[0]
        stats = coord.stats()
        assert stats.executions == 2
        assert stats.coalesced == 2

    def test_empty_batch(self, coordinator):
        assert coordinator.query_many([]) == []

    def test_unknown_method_and_mode_rejected(self, coordinator):
        calls_before = [s["calls"] for s in coordinator.shard_sections()]
        with pytest.raises(TopologyError, match="unknown method"):
            coordinator.query(query_for("sql"), method="nope")
        with pytest.raises(TopologyError, match="mode"):
            coordinator.query_many([query_for("sql")], mode="teleport")
        # Both are rejected before any shard is called.
        assert [s["calls"] for s in coordinator.shard_sections()] == calls_before

    def test_latency_stats_record_merged_results(self, fresh_coordinator):
        fresh_coordinator.query(query_for("fast-top-k"), method="fast-top-k")
        snapshot = fresh_coordinator.latency_stats()
        assert snapshot["fast-top-k"]["count"] == 1

    def test_explain_returns_shard_plan(self, coordinator, tiny_system):
        query = query_for("fast-top-k-opt")
        plan = coordinator.explain(query)
        assert plan.method == tiny_system.explain(query).method

    def test_explain_carries_shard_zero_operator_tree(self, coordinator):
        query = query_for("fast-top-k-et")
        plan = coordinator.explain(query, method="fast-top-k-et")
        shard0 = load_system(coordinator.manifest.shard_paths[0])
        assert plan.operators == shard0.explain(query, "fast-top-k-et").operators
        assert "OrderedIndexScan(TopInfo" in plan.operators

    def test_stats_shard_sections(self, coordinator, split4):
        sections = coordinator.stats().shards
        assert [s["index"] for s in sections] == list(range(NUM_SHARDS))
        assert all(s["set_id"] == split4.set_id for s in sections)
        assert tuple(
            s["routed_rows"] for s in sections
        ) == coordinator.partition_histogram()
        assert coordinator.partition_histogram() == split4.row_histogram
        report = coordinator.skew_report()
        assert report["skew"] == pytest.approx(split4.skew)
        assert report["skew_warning"] is False
        assert report["row_histogram"] == list(split4.row_histogram)


class TestFailureModes:
    def test_dead_shard_aborts_loudly(self, fresh_coordinator):
        coord = fresh_coordinator
        coord._backends[2].close()
        with pytest.raises(ShardUnavailableError) as info:
            coord.query(query_for("fast-top-k"), method="fast-top-k")
        assert info.value.shard_index == 2
        assert info.value.retry_after >= 1
        stats = coord.stats()
        assert stats.failures == 1
        assert stats.shards[2]["failures"] == 1
        # The flight was cleaned up: the same query can be retried.
        assert coord.stats().in_flight == 0

    def test_queue_timeout_surfaces_as_unavailable(self, fresh_coordinator):
        """A wedged worker (single process per shard, busy with a long
        op) must miss the reply deadline, not hang the coordinator."""
        coord = fresh_coordinator
        backend = coord._backends[1]
        backend.submit("sleep", 5.0)  # occupies the one worker
        backend.timeout = 0.2
        with pytest.raises(ShardUnavailableError) as info:
            coord.query(query_for("fast-top-k-et"), method="fast-top-k-et")
        assert info.value.shard_index == 1
        assert "no reply" in str(info.value)
        assert coord.stats().shards[1]["timeouts"] == 1
        # Teardown terminates the still-sleeping worker; no drain needed.

    def test_wedged_shard_scrape_records_the_error(self, fresh_coordinator):
        """Regression pin (relint R9's defect): ``shard_obs_sections``
        used to swallow scrape failures with a silent broad except, so a
        wedged worker was indistinguishable from a healthy-but-empty
        one.  The scrape must still succeed, mark the shard down, and
        say *why*."""
        coord = fresh_coordinator
        backend = coord._backends[1]
        backend.submit("sleep", 5.0)  # occupies the one worker
        backend.timeout = 0.2
        sections = coord.shard_obs_sections()
        assert [s["index"] for s in sections] == list(range(NUM_SHARDS))
        wedged = sections[1]
        assert wedged["up"] is False
        assert "error" in wedged and wedged["error"]  # the cause, named
        healthy = [s for i, s in enumerate(sections) if i != 1]
        assert all(s["up"] is True for s in healthy)
        assert all("error" not in s for s in healthy)
        # Teardown terminates the still-sleeping worker; no drain needed.

    def test_batch_failure_counts_every_slot(self, fresh_coordinator):
        coord = fresh_coordinator
        coord._backends[0].close()
        queries = [query_for("full-top-k", w) for w in ("kinase", "human")]
        with pytest.raises(ShardUnavailableError):
            coord.query_many(queries, method="full-top-k")
        assert coord.stats().failures == 2

    def test_scored_and_unscored_parts_never_merge(self):
        """Shards that disagree on whether an answer is ranked are a
        broken set: the merge refuses rather than guessing a shape."""
        query = query_for("sql")
        scored = MethodResult("sql", query, [7], [0.5], 0.0)
        unscored = MethodResult("sql", query, [3], None, 0.0)
        with pytest.raises(ShardError, match="1 of 2 shards returned scores"):
            ShardCoordinator._merge(query, [scored, unscored])

    def test_generation_stamp_mismatch_is_loud(self, fresh_coordinator):
        """A backend serving a different generation than the coordinator
        believes must be rejected at the gather, never merged."""
        backend = fresh_coordinator._backends[0]
        backend.generation += 1
        with pytest.raises(TopologyError, match="stamped"):
            backend.call("ping")


class TestRebuild:
    def test_rebuild_commits_a_new_generation(self, fresh_coordinator, tiny_system):
        coord = fresh_coordinator
        query = query_for("fast-top-k-opt")
        manifest_before = coord.manifest
        before = coord.query(query)
        assert before.generation == 1

        report = coord.rebuild()
        assert report.elapsed_seconds > 0  # a real offline-phase report
        assert coord.generation == 2
        assert coord.manifest.path != manifest_before.path
        assert coord.manifest.set_id == manifest_before.set_id  # same store

        after = coord.query(query)
        assert after.generation == 2
        reference = tiny_system.search(query)
        assert after.tids == reference.tids
        assert after.scores == reference.scores
        assert coord.stats().rebuilds == 1
        # New backends answer with the new generation's stamp.
        assert len(coord.shard_digests()) == NUM_SHARDS

    def test_failed_rebuild_leaves_serving_set_untouched(
        self, fresh_coordinator, monkeypatch
    ):
        coord = fresh_coordinator
        query = query_for("fast-top-k")
        before = coord.query(query, method="fast-top-k")
        manifest_before = coord.manifest

        import repro.shard.build as shard_build

        def explode(*args, **kwargs):
            raise RuntimeError("injected split failure")

        monkeypatch.setattr(shard_build, "split_system", explode)
        with pytest.raises(RuntimeError, match="injected"):
            coord.rebuild()

        assert coord.generation == 1
        assert coord.manifest is manifest_before
        assert coord.stats().rebuilds == 0
        again = coord.query(query, method="fast-top-k")
        assert again.tids == before.tids  # old backends still serving

    def test_rebuild_overlaps_with_live_queries(self, fresh_coordinator, tiny_system):
        """Readers keep getting answers while the writer commits a
        generation with *different* answers; every answer equals the
        unsharded oracle of the generation it is stamped with, so a
        merge of one old and one new shard cannot pass."""
        coord = fresh_coordinator
        workload = [
            query_for("fast-top-k-opt", keyword=keyword)
            for keyword in ("kinase", "binding", "human", "receptor")
        ]
        successor = tiny_system.clone_base()
        successor.build(
            list(tiny_system.built_pairs),
            max_length=tiny_system.max_length,
            per_pair_path_limit=1,
        )
        oracles = {
            generation: [(r.tids, r.scores) for r in map(system.search, workload)]
            for generation, system in ((1, tiny_system), (2, successor))
        }
        # The two configurations genuinely disagree — otherwise a
        # mixed-generation merge could masquerade as a valid answer.
        assert oracles[1] != oracles[2]

        posted = threading.Event()
        stop = threading.Event()
        seen: list = []
        failures: list = []
        during_rebuild: list = []

        def ask(index):
            result = coord.query(workload[index])
            seen.append((result.generation, index, (result.tids, result.scores)))

        def reader():
            i = 0
            while not stop.is_set():
                asked_while_posted = posted.is_set()
                try:
                    ask(i % len(workload))
                except Exception as exc:  # pragma: no cover - fails test
                    failures.append(exc)
                    return
                if asked_while_posted and not stop.is_set():
                    during_rebuild.append(i)
                i += 1
                # A tight loop of result-cache hits holds the GIL the
                # rebuild needs at each of its blocking steps.
                stop.wait(0.001)

        thread = threading.Thread(target=reader)
        with create_app(coord) as app, TestClient(app) as client:
            thread.start()
            try:  # the commit goes through the wire's /rebuild
                posted.set()
                response = client.post("/rebuild", json={"per_pair_path_limit": 1})
            finally:
                stop.set()
                thread.join(timeout=120)
        assert not thread.is_alive()
        assert response.status == 200, response.body
        assert not failures
        # The reader itself was answered while /rebuild was in flight.
        assert during_rebuild
        assert coord.generation == 2
        for index in range(len(workload)):
            ask(index)
        assert {generation for generation, _, _ in seen} == {1, 2}
        torn = [(g, i) for g, i, answer in seen if oracles[g][i] != answer]
        assert torn == []
        # Counter invariants hold across the commit.
        stats = coord.stats()
        assert stats.requests == len(seen)
        cache = stats.result_cache
        assert cache.hits + cache.misses == stats.requests
        assert cache.misses == stats.executions + stats.coalesced

    def test_closed_coordinator_rejects_work(self, split4):
        coord = ShardCoordinator(split4.manifest_path, start_method="fork")
        coord.close()
        with pytest.raises(TopologyError, match="closed"):
            coord.query(query_for("fast-top-k"), method="fast-top-k")
        with pytest.raises(TopologyError):
            coord.explain(query_for("fast-top-k"))
        with pytest.raises(TopologyError, match="closed"):
            coord.rebuild()


class TestCalibrationSwitch:
    def test_shard_workers_keep_calibration_disabled(self, tmp_path, tiny_system):
        """A store split while calibration is off serves from workers
        that leave it off: the costed queries teach no calibrator."""
        tiny_system.calibration_enabled = False
        try:
            split = split_system(tiny_system, 2, tmp_path)
        finally:
            tiny_system.calibration_enabled = True
        with ShardCoordinator(split.manifest_path, start_method="fork") as coord:
            before = [s["calibrator"] for s in coord.shard_obs_sections()]
            for keyword in ("kinase", "binding", "human"):
                coord.query(query_for("fast-top-k-opt", keyword), method="fast-top-k-opt")
            after = [s["calibrator"] for s in coord.shard_obs_sections()]
        assert len(after) == 2 and after == before
