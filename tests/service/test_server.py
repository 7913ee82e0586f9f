"""TopologyServer: hot rebuild, single-flight, batching — plus the
stats bugfix pins (nearest-rank percentiles, one-acquisition
snapshots).  The cache pins (sentinel misses, stale-entry eviction)
are ``tests/test_cache.py``."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import (
    AttributeConstraint,
    KeywordConstraint,
    TopologyQuery,
    TopologySearchSystem,
)
from repro.errors import TopologyError
from repro.obs import span as obs_span
from repro.obs import tracer as obs_tracer
from repro.service import LatencyStats, TopologyServer


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
def server(tiny_system):
    with TopologyServer(tiny_system) as srv:
        yield srv


# ----------------------------------------------------------------------
# Bugfix pins
# ----------------------------------------------------------------------
class TestNearestRankPercentile:
    """percentile() is the explicit nearest rank ceil(q/100 * n), not
    ``int(round(...))`` whose banker's rounding shifted p50 of an
    even-sized window up a rank."""

    @staticmethod
    def stats_with(samples):
        stats = LatencyStats("m")
        for s in samples:
            stats.record(s)
        return stats

    def test_p50_of_even_window_is_lower_middle(self):
        stats = self.stats_with([0.1, 0.2, 0.3, 0.4])
        assert stats.percentile(50) == 0.2  # was 0.3 via round(1.5) == 2

    def test_known_sample_set(self):
        stats = self.stats_with([0.4, 0.1, 0.3, 0.2])  # order-insensitive
        assert stats.percentile(25) == 0.1
        assert stats.percentile(75) == 0.3
        assert stats.percentile(95) == 0.4
        assert stats.percentile(100) == 0.4
        assert stats.percentile(0) == 0.1  # rank clamps to 1

    def test_odd_window_median(self):
        assert self.stats_with([3.0, 1.0, 2.0]).percentile(50) == 2.0

    def test_empty_window(self):
        assert LatencyStats("m").percentile(50) == 0.0

    def test_snapshot_uses_nearest_rank(self):
        stats = self.stats_with([0.1, 0.2, 0.3, 0.4])
        assert stats.snapshot()["p50_seconds"] == 0.2


class TestSnapshotConsistency:
    """snapshot() reads counters AND percentiles under ONE lock
    acquisition.  The old implementation re-locked once per percentile,
    so concurrent record() calls could slip between — a count from one
    window and a p95 from another, served verbatim by ``GET /stats``."""

    class CountingLock:
        """Context-manager lock that counts acquisitions."""

        def __init__(self):
            self._lock = threading.Lock()
            self.acquisitions = 0

        def __enter__(self):
            self._lock.acquire()
            self.acquisitions += 1
            return self

        def __exit__(self, *exc):
            self._lock.release()

    def test_snapshot_acquires_the_lock_exactly_once(self):
        stats = LatencyStats("m")
        for s in (0.1, 0.2, 0.3):
            stats.record(s)
        counter = self.CountingLock()
        stats._lock = counter
        snap = stats.snapshot()
        assert counter.acquisitions == 1
        assert snap["count"] == 3
        assert snap["p99_seconds"] == 0.3

    def test_snapshot_has_all_slo_percentiles(self):
        snap = LatencyStats("m").snapshot()
        assert {
            "count",
            "total_seconds",
            "mean_seconds",
            "min_seconds",
            "max_seconds",
            "p50_seconds",
            "p95_seconds",
            "p99_seconds",
            "buckets",
        } == set(snap)
        assert snap["count"] == 0
        assert snap["min_seconds"] == 0.0  # not math.inf on the wire

    def test_buckets_are_count_preserving(self):
        """Bucket counts cover every sample ever recorded — they sum to
        ``count`` even past the percentile window — and use the shared
        LATENCY_BUCKETS bounds so `/metrics` histograms line up with
        `/stats`."""
        from repro.obs import LATENCY_BUCKETS
        from repro.service.core import LATENCY_SAMPLE_WINDOW

        stats = LatencyStats("m")
        for n in range(LATENCY_SAMPLE_WINDOW + 100):  # overflow the window
            stats.record(0.0001 if n % 2 else 20.0)  # first and +Inf buckets
        snap = stats.snapshot()
        buckets = snap["buckets"]
        assert buckets["le"] == list(LATENCY_BUCKETS)
        assert len(buckets["counts"]) == len(LATENCY_BUCKETS) + 1
        assert sum(buckets["counts"]) == snap["count"] == LATENCY_SAMPLE_WINDOW + 100
        assert buckets["counts"][0] == (LATENCY_SAMPLE_WINDOW + 100) // 2
        assert buckets["counts"][-1] == (LATENCY_SAMPLE_WINDOW + 100 + 1) // 2

    def test_every_snapshot_is_internally_consistent_under_races(self):
        """Writers hammer record() while readers take snapshots; every
        snapshot must describe ONE instant: ordered percentiles inside
        the [min, max] envelope and mean == total/count exactly."""
        stats = LatencyStats("m")
        stop = threading.Event()
        bad = []

        def writer(seed: int) -> None:
            value = float(seed + 1)
            while not stop.is_set():
                stats.record(value % 7 + 0.001)
                value += 1.0

        def reader() -> None:
            while not stop.is_set():
                snap = stats.snapshot()
                if snap["count"] == 0:
                    continue
                ok = (
                    snap["min_seconds"]
                    <= snap["p50_seconds"]
                    <= snap["p95_seconds"]
                    <= snap["p99_seconds"]
                    <= snap["max_seconds"]
                    and snap["mean_seconds"] == snap["total_seconds"] / snap["count"]
                )
                if not ok:
                    bad.append(snap)

        threads = [
            threading.Thread(target=writer, args=(n,)) for n in range(4)
        ] + [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        time.sleep(0.3)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        assert bad == []
        assert stats.count > 0


# ----------------------------------------------------------------------
# Server basics
# ----------------------------------------------------------------------
class TestServerQueries:
    def test_requires_a_built_system(self, tiny_dataset):
        unbuilt = TopologySearchSystem(tiny_dataset.database, tiny_dataset.graph())
        with pytest.raises(TopologyError, match="built"):
            TopologyServer(unbuilt)

    def test_repeat_query_served_from_cache(self, server):
        query = make_query()
        first = server.query(query)
        assert server.query(query) is first
        stats = server.stats()
        assert stats.result_cache.hits == 1
        assert stats.result_cache.misses == 1
        assert stats.executions == 1

    def test_results_match_the_engine(self, server, tiny_system):
        query = make_query()
        assert server.query(query).tids == tiny_system.search(query).tids

    def test_results_are_generation_stamped(self, server):
        assert server.query(make_query()).generation == server.generation == 1

    def test_counter_invariants(self, server):
        for keyword in ("kinase", "binding", "kinase"):
            server.query(make_query(keyword))
        stats = server.stats()
        assert stats.requests == 3
        assert stats.result_cache.hits + stats.result_cache.misses == stats.requests
        assert stats.result_cache.misses == stats.executions + stats.coalesced

    def test_explain_does_not_execute_or_cache(self, server):
        plan = server.explain(make_query())
        assert plan.has_costs
        assert server.stats().result_cache.size == 0

    def test_latency_records_only_executions(self, server):
        query = make_query()
        for _ in range(4):
            server.query(query)
        assert server.latency_stats()["fast-top-k-opt"]["count"] == 1

    def test_invalid_pair_raises_and_counts_failure(self, server):
        bad = TopologyQuery(
            "DNA",
            "Unigene",
            KeywordConstraint("DESC", "x"),
            AttributeConstraint("TYPE", "y"),
        )
        with pytest.raises(TopologyError):
            server.query(bad)
        stats = server.stats()
        assert stats.failures == 1
        assert stats.in_flight == 0  # the failed flight was removed


class TestHotRebuild:
    def test_rebuild_swaps_generation_without_touching_the_original(
        self, tiny_system
    ):
        with TopologyServer(tiny_system) as server:
            query = make_query()
            before = server.query(query)
            original_digest = tiny_system.require_store().state_digest()
            report = server.rebuild()
            assert report.alltops.distinct_topologies > 0
            assert server.generation == 2
            after = server.query(query)
            assert after is not before
            assert after.tids == before.tids  # same data -> same answer
            assert after.generation == 2
            # Hot rebuild built a clone; the original system is untouched
            # and still serves other owners.
            assert tiny_system.require_store().state_digest() == original_digest
            assert server.system is not tiny_system

    def test_rebuild_carries_config_and_calibration(self, tiny_system):
        with TopologyServer(tiny_system) as server:
            server.query(make_query())
            observed = sum(
                s["count"] for s in server.calibration_stats()["strategies"].values()
            )
            assert observed >= 1
            server.rebuild()
            carried = sum(
                s["count"] for s in server.calibration_stats()["strategies"].values()
            )
            assert carried == observed  # learned factors survive the swap
            assert server.system.max_length == tiny_system.max_length
            assert server.system.built_pairs == tiny_system.built_pairs

    def test_rebuild_overrides_win(self, tiny_system):
        with TopologyServer(tiny_system) as server:
            baseline = server.query(make_query()).tids
            server.rebuild(per_pair_path_limit=1)
            limited = server.query(make_query()).tids
            assert limited != baseline  # the override changed the store
            server.rebuild(per_pair_path_limit=None)
            assert server.query(make_query()).tids == baseline

    def test_rebuild_preserves_calibration_enabled_flag(self, tiny_system):
        tiny_system.calibration_enabled = False
        try:
            with TopologyServer(tiny_system) as server:
                server.rebuild()
                assert server.system.calibration_enabled is False
        finally:
            tiny_system.calibration_enabled = True

    def test_rebuild_drops_result_cache(self, tiny_system):
        with TopologyServer(tiny_system) as server:
            server.query(make_query())
            server.rebuild()
            assert server.stats().result_cache.size == 0
            assert server.stats().rebuilds == 1


class TestSnapshotLifecycle:
    def test_save_restore_round_trip(self, tiny_system, tmp_path):
        path = tmp_path / "srv.topo"
        query = make_query()
        with TopologyServer(tiny_system) as server:
            expected = server.query(query).tids
            server.save(path)
            server.restore(path)
            assert server.generation == 2
            assert server.stats().restores == 1
            assert server.query(query).tids == expected

    def test_restore_keeps_calibration_disabled(self, tiny_system, tmp_path):
        path = tmp_path / "pinned.topo"
        tiny_system.calibration_enabled = False
        try:
            with TopologyServer(tiny_system) as server:
                server.save(path)
                server.restore(path)
                assert server.system is not tiny_system
                assert server.system.calibration_enabled is False
        finally:
            tiny_system.calibration_enabled = True

    def test_from_snapshot_keeps_calibration_disabled(self, tiny_system, tmp_path):
        path = tmp_path / "pinned.topo"
        tiny_system.calibration_enabled = False
        try:
            tiny_system.save(path)
        finally:
            tiny_system.calibration_enabled = True
        with TopologyServer.from_snapshot(path) as server:
            assert server.system.calibration_enabled is False

    def test_from_snapshot(self, tiny_system, tmp_path):
        path = tmp_path / "srv.topo"
        tiny_system.save(path)
        with TopologyServer.from_snapshot(
            path, cache_size=16, slow_query_seconds=0.25
        ) as server:
            result = server.query(make_query())
            assert result.tids == tiny_system.search(make_query()).tids
            assert server.slow_query_log.threshold_seconds == 0.25


class TestQueryMany:
    def workload(self):
        return [
            make_query(keyword, k)
            for keyword in ("kinase", "binding", "human")
            for k in (2, 4)
        ]

    def test_serial_batch_matches_submission_order(self, server):
        batch = self.workload()
        results = server.query_many(batch)
        assert [r.query for r in results] == batch

    def test_parallel_batch_matches_serial_oracle(self, tiny_system):
        batch = self.workload()
        oracle = [tiny_system.search(q).tids for q in batch]
        with TopologyServer(tiny_system) as server:
            results = server.query_many(batch, parallel=4)
            assert [r.tids for r in results] == oracle

    def test_parallel_batch_deduplicates(self, server):
        query = make_query()
        results = server.query_many([query] * 8, parallel=4)
        assert len(results) == 8
        assert len({id(r) for r in results}) == 1  # one shared result
        assert server.stats().executions == 1

    def test_serial_batch_amortizes_planning(self, tiny_system):
        # Same class (same shape, same k bucket), distinct result keys.
        batch = [make_query("kinase", k) for k in (3, 4)] * 2
        # Freeze calibration: a version bump between the two executions
        # would (correctly) evict the plan and hide the hit.
        tiny_system.calibration_enabled = False
        try:
            with TopologyServer(tiny_system) as server:
                before = server.plan_cache_stats()
                server.query_many(batch)
                after = server.plan_cache_stats()
                # 2 distinct keys -> 2 executions -> 2 plan lookups; the
                # second same-class query hits whatever the first did.
                assert after.requests - before.requests == 2
                assert after.hits - before.hits >= 1
        finally:
            tiny_system.calibration_enabled = True

    def test_serial_batch_spans_join_the_callers_trace(self, server):
        """Every per-slot ``server.query`` ingress span of a batch is a
        child of the caller's span (relint R4's defect was a batch that
        shattered into one orphan trace per slot)."""
        batch = self.workload()
        with obs_span("test.batch", ingress=True) as root:
            server.query_many(batch, parallel=4)
        if not root.recording:
            pytest.skip("tracing disabled in this environment")
        spans = obs_tracer().trace_spans(root.trace_id)
        query_spans = [s for s in spans if s.name == "server.query"]
        assert len(query_spans) == len(batch)
        assert all(s.parent_id == root.span_id for s in query_spans)

    def test_process_batch_spans_join_the_callers_trace(self, tiny_system):
        """The replicas' ``shard.query`` spans travel back in their
        replies and land in the caller's trace, under the caller's span,
        covering every slot of the batch once."""
        batch = self.workload()
        with TopologyServer(tiny_system) as server:
            with obs_span("test.batch", ingress=True) as root:
                server.query_many(batch, parallel=2, mode="process")
        if not root.recording:
            pytest.skip("tracing disabled in this environment")
        spans = obs_tracer().trace_spans(root.trace_id)
        shard_spans = [s for s in spans if s.name == "shard.query"]
        assert len(shard_spans) == 2  # one chunk per replica
        assert all(s.parent_id == root.span_id for s in shard_spans)
        assert sum(s.tags["items"] for s in shard_spans) == len(batch)

    def test_unknown_mode_rejected(self, server):
        with pytest.raises(TopologyError, match="mode"):
            server.query_many([make_query()], parallel=2, mode="carrier-pigeon")

    def test_process_mode_matches_serial(self, tiny_system):
        batch = self.workload()
        oracle = [tiny_system.search(q).tids for q in batch]
        with TopologyServer(tiny_system) as server:
            results = server.query_many(batch, parallel=2, mode="process")
            assert [r.tids for r in results] == oracle
            assert {r.generation for r in results} == {1}
            # Replica results warm the shared result cache.
            follow_up = server.query(batch[0])
            assert follow_up.tids == oracle[0]
            assert server.stats().result_cache.hits >= 1

    def test_process_mode_width_is_bounded_by_the_machine(self, tiny_system, monkeypatch):
        """``parallel`` arrives from the HTTP client (up to 64); every
        replica loads the whole store, so the core count caps it."""
        built = []

        class RecordingPool:
            def __init__(self, system, workers, generation):
                self.workers, self.generation = workers, generation
                built.append(workers)

            def run(self, chunks):
                return [
                    [(i, tiny_system.search(q, method)) for i, q in items]
                    for method, items in chunks
                ]

            def close(self):
                pass

        monkeypatch.setattr("repro.service.server.ReplicaPool", RecordingPool)
        batch = self.workload()
        with TopologyServer(tiny_system) as server:
            for cores, parallel in ((3, 64), (3, 2), (1, 64)):
                monkeypatch.setattr("os.cpu_count", lambda cores=cores: cores)
                server.invalidate()
                results = server.query_many(batch, parallel=parallel, mode="process")
                assert [r.query for r in results] == batch
        assert built == [3, 2]  # 64 -> 3 cores; 2 as asked; 64 -> the floor of 2, pool reused

    def test_process_mode_goes_through_the_cache_and_counters(self, tiny_system):
        """Regression pin: the replica fan-out used to bypass the
        request path — a batch of already-cached queries moved neither
        ``requests`` nor ``hits`` and re-executed every query on the
        replicas."""
        batch = self.workload()
        cached = batch[:2]
        fresh = batch[2:]
        with TopologyServer(tiny_system) as server:
            for query in cached:
                server.query(query)
            before = server.stats()
            latency_before = server.latency_stats()["fast-top-k-opt"]["count"]
            # One uncached query appears twice: it executes once.
            results = server.query_many(
                batch + [fresh[0]], parallel=2, mode="process"
            )
            after = server.stats()
            assert [r.query for r in results] == batch + [fresh[0]]
            assert results[-1] is results[2]
            assert after.requests - before.requests == len(batch) + 1
            assert after.result_cache.hits - before.result_cache.hits == len(cached)
            assert after.executions - before.executions == len(fresh)
            assert after.coalesced - before.coalesced == 1
            assert (
                server.latency_stats()["fast-top-k-opt"]["count"] - latency_before
                == len(fresh)
            )
            cache = after.result_cache
            assert cache.hits + cache.misses == after.requests
            assert cache.misses == after.executions + after.coalesced
            assert after.in_flight == 0
            # The cached results were served as-is, the fresh ones are
            # cached now: the same batch again is all hits.
            again = server.query_many(batch, parallel=2, mode="process")
            assert all(a is b for a, b in zip(again, results))
            assert server.stats().executions == after.executions


class TestClose:
    def test_close_is_idempotent_and_queries_degrade_to_serial(self, tiny_system):
        server = TopologyServer(tiny_system)
        server.query(make_query())
        server.close()
        server.close()
        assert server.query(make_query("binding")).tids is not None
        # Batches still work after close — on the caller's thread.
        results = server.query_many(
            [make_query("kinase"), make_query("human")], parallel=2
        )
        assert [r.tids for r in results] == [
            tiny_system.search(make_query("kinase")).tids,
            tiny_system.search(make_query("human")).tids,
        ]
