"""Concurrency stress: many threads, one server, exact counters.

Three claims are hammered here:

1. **Exactness** — under a repeated-shape workload from >= 8 threads,
   the result-cache and plan-cache counters obey their invariants
   *exactly* (no lost updates), and single-flight means each distinct
   key executes exactly once.
2. **Correctness** — every concurrent result is identical to a
   single-threaded oracle run on an identically built system.
3. **Generation consistency** — with hot rebuilds racing the traffic,
   every result matches one generation's oracle answer exactly; no
   result ever mixes two generations.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.biozon import BiozonConfig, generate
from repro.core import (
    AttributeConstraint,
    KeywordConstraint,
    TopologyQuery,
    TopologySearchSystem,
)
from repro.service import TopologyServer

THREADS = 8
REPEATS = 25


def make_query(keyword: str = "kinase", k: int = 4):
    return TopologyQuery(
        "Protein",
        "DNA",
        KeywordConstraint("DESC", keyword),
        AttributeConstraint("TYPE", "mRNA"),
        k=k,
        ranking="rare",
    )


WORKLOAD = [
    make_query(keyword, k)
    for keyword in ("kinase", "binding", "human", "receptor")
    for k in (2, 4, 8)
]


@pytest.fixture(scope="module")
def oracle_system(tiny_system):
    """An identically built private system: the single-threaded oracle.

    Built via clone_base() + build(), which PR 2's determinism contract
    guarantees is bit-identical — and it keeps the oracle's executions
    out of the server system's plan-cache/calibrator counters."""
    clone = tiny_system.clone_base()
    clone.build(list(tiny_system.built_pairs), max_length=tiny_system.max_length)
    return clone


def hammer(server, workload, threads=THREADS, repeats=REPEATS):
    """Each thread walks the workload at its own offset, ``repeats``
    times; returns every (query, tids) observed plus raised errors."""
    observed = []
    errors = []
    lock = threading.Lock()
    barrier = threading.Barrier(threads)

    def worker(offset: int) -> None:
        try:
            barrier.wait()
            local = []
            for i in range(repeats * len(workload)):
                query = workload[(offset + i) % len(workload)]
                result = server.query(query)
                local.append((query, tuple(result.tids), result.generation))
            with lock:
                observed.extend(local)
        except Exception as error:  # pragma: no cover - failure reporting
            with lock:
                errors.append(error)

    pool = [threading.Thread(target=worker, args=(n,)) for n in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    return observed, errors


class TestExactCountersUnderContention:
    def test_repeated_shape_workload_counters_and_oracle(self, oracle_system):
        oracle = {q: tuple(oracle_system.search(q).tids) for q in WORKLOAD}
        # A private serving system so counters start at zero.
        serving = oracle_system.clone_base()
        serving.build(
            list(oracle_system.built_pairs), max_length=oracle_system.max_length
        )
        with TopologyServer(serving) as server:
            observed, errors = hammer(server, WORKLOAD)
            stats = server.stats()

        assert errors == []
        total = THREADS * REPEATS * len(WORKLOAD)
        assert len(observed) == total

        # Correctness: every concurrent answer equals the oracle's.
        for query, tids, generation in observed:
            assert tids == oracle[query]
            assert generation == 1

        # Exact counters: nothing lost under contention.
        assert stats.requests == total
        cache = stats.result_cache
        assert cache.hits + cache.misses == stats.requests
        assert cache.misses == stats.executions + stats.coalesced
        # Single-flight + cache: each distinct key ran exactly once.
        assert stats.executions == len(WORKLOAD)
        assert stats.failures == 0
        assert stats.in_flight == 0

        # Plan cache: one lookup per engine execution, all accounted.
        # (invalidations may be nonzero: calibration feedback from the
        # executions can bump the calibrator version mid-run, evicting
        # now-stale plans — that is the design, not a lost update.)
        plan = stats.plan_cache
        assert plan.hits + plan.misses == stats.executions

        # Latency accounting saw exactly the engine executions.
        counts = sum(s["count"] for s in server.latency_stats().values())
        assert counts == stats.executions

    def test_single_flight_coalesces_a_thundering_herd(self, oracle_system):
        serving = oracle_system.clone_base()
        serving.build(
            list(oracle_system.built_pairs), max_length=oracle_system.max_length
        )
        query = make_query("kinase", 8)
        herd = 12
        barrier = threading.Barrier(herd)

        with TopologyServer(serving) as server:

            def rush():
                barrier.wait()
                return server.query(query)

            with ThreadPoolExecutor(max_workers=herd) as pool:
                results = list(pool.map(lambda _: rush(), range(herd)))
            stats = server.stats()

        assert len({tuple(r.tids) for r in results}) == 1
        # Exactly one execution; every other request either coalesced
        # onto it or arrived after it was cached.
        assert stats.executions == 1
        assert stats.coalesced + stats.result_cache.hits == herd - 1
        assert stats.requests == herd

    def test_work_attribution_is_per_thread(self, oracle_system):
        """Concurrent executions report the same per-query work counters
        as a single-threaded run: thread-local ExecStats means one
        query's counters never bleed into another's.

        Calibration is disabled on both systems so every run picks the
        same plan — otherwise differing calibration trajectories change
        strategies, and with them the (legitimately different) work."""
        reference = oracle_system.clone_base()
        reference.build(
            list(oracle_system.built_pairs), max_length=oracle_system.max_length
        )
        reference.calibration_enabled = False
        expected = {q: reference.search(q).work for q in WORKLOAD}
        serving = oracle_system.clone_base()
        serving.build(
            list(oracle_system.built_pairs), max_length=oracle_system.max_length
        )
        serving.calibration_enabled = False
        with TopologyServer(serving) as server:
            with ThreadPoolExecutor(max_workers=THREADS) as pool:
                results = list(pool.map(server.query, WORKLOAD))
        for result in results:
            assert result.work == expected[result.query]


class TestPerThreadExecStats:
    def test_totals_conserved_and_dead_buckets_retired(self, oracle_system):
        """Short-lived threads (thread-per-request style) must not grow
        the per-thread bucket list without bound, and their work must
        survive into the totals after they die."""
        database = oracle_system.database
        database.reset_all_stats()
        query = make_query("kinase", 4)

        def one_shot() -> None:
            oracle_system.search(query)

        for _ in range(6):
            thread = threading.Thread(target=one_shot)
            thread.start()
            thread.join()
        totals_before = database.stats_totals()
        assert totals_before["rows_scanned"] > 0
        # Touching stats from a fresh thread retires the dead buckets...
        prober = threading.Thread(target=lambda: database.stats)
        prober.start()
        prober.join()
        with database._stats_lock:
            live = len(database._stats_buckets)
        assert live <= 2  # this thread + (at most) the just-dead prober
        # ...without losing any completed work.
        assert database.stats_totals() == totals_before


class TestRebuildUnderLoad:
    """Hot rebuilds race live traffic; every result must be entirely
    from one generation.  The two build configurations produce
    *different* answers for every workload query (checked), so a torn
    read — half old store, half new — cannot masquerade as a valid
    result."""

    CONFIGS = {0: {"per_pair_path_limit": None}, 1: {"per_pair_path_limit": 1}}

    @pytest.fixture()
    def private_server(self):
        dataset = generate(BiozonConfig.tiny(seed=3))
        system = TopologySearchSystem(dataset.database, dataset.graph())
        system.build(
            [("Protein", "DNA"), ("Protein", "Interaction")], max_length=3
        )
        with TopologyServer(system) as server:
            yield server

    def test_only_generation_consistent_results(self, private_server):
        server = private_server
        workload = WORKLOAD[:6]
        # Generation oracles, computed on the serving system while it is
        # the stable current generation (reads are thread-safe).
        oracles = {}

        def snapshot_oracle():
            oracles[server.generation] = {
                q: tuple(server.system.search(q).tids) for q in workload
            }

        snapshot_oracle()
        stop = threading.Event()
        rebuilding = threading.Event()
        observed = []
        during_rebuild = []
        errors = []
        lock = threading.Lock()

        def reader(offset: int) -> None:
            try:
                i = 0
                while not stop.is_set():
                    query = workload[(offset + i) % len(workload)]
                    asked_while_rebuilding = rebuilding.is_set()
                    result = server.query(query)
                    with lock:
                        observed.append(
                            (result.generation, query, tuple(result.tids))
                        )
                        if asked_while_rebuilding and rebuilding.is_set():
                            during_rebuild.append(offset)
                    i += 1
            except Exception as error:  # pragma: no cover
                with lock:
                    errors.append(error)

        threads = [
            threading.Thread(target=reader, args=(n,)) for n in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        try:
            for round_number in range(3):
                rebuilding.set()
                server.rebuild(**self.CONFIGS[(round_number + 1) % 2])
                rebuilding.clear()
                snapshot_oracle()
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=120)

        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # Readers were answered while a rebuild was in flight.
        assert during_rebuild
        assert len(oracles) == 4  # initial + three rebuilds
        # The alternating configs genuinely disagree — otherwise this
        # test could not detect a mixed-generation answer.
        assert oracles[1] != oracles[2]

        inconsistent = [
            (generation, query, tids)
            for generation, query, tids in observed
            if oracles[generation][query] != tids
        ]
        assert inconsistent == []
        assert {generation for generation, _, _ in observed} <= set(oracles)

        stats = server.stats()
        assert stats.rebuilds == 3
        assert stats.requests == len(observed)
        assert stats.result_cache.hits + stats.result_cache.misses == stats.requests
        assert stats.result_cache.misses == stats.executions + stats.coalesced


class TestLRUCacheFalsyHitsUnderContention:
    """The MISSING-sentinel hit protocol must survive the 8-thread
    stress treatment: a cached falsy value (None, 0, empty list, empty
    string) is a *hit* on every thread, every time — presence of the
    key decides hit vs. miss, never truthiness of the value — and the
    hit/miss counters stay exact (no lost updates) while readers race
    writers refreshing the same falsy entries."""

    FALSY = {f"key{i}": value for i, value in enumerate((None, 0, [], "", False))}

    def test_falsy_values_always_hit_with_exact_counters(self):
        from repro.service import MISSING, LRUCache

        cache = LRUCache(capacity=64)
        for key, value in self.FALSY.items():
            cache.put(key, value)

        rounds = 200
        keys = sorted(self.FALSY)
        wrong = []
        lock = threading.Lock()
        barrier = threading.Barrier(THREADS)

        def worker(offset: int) -> None:
            barrier.wait()
            local = []
            for i in range(rounds):
                key = keys[(offset + i) % len(keys)]
                got = cache.get(key, MISSING)
                if got is MISSING:
                    local.append((key, "reported miss"))
                elif got != self.FALSY[key]:
                    local.append((key, got))
                # Writers race readers: re-putting the same falsy value
                # must never turn a present key into a miss.
                if i % 7 == offset % 7:
                    cache.put(key, self.FALSY[key])
            with lock:
                wrong.extend(local)

        pool = [threading.Thread(target=worker, args=(n,)) for n in range(THREADS)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        assert wrong == []
        stats = cache.stats()
        assert stats.hits == THREADS * rounds  # exact: every get was a hit
        assert stats.misses == 0
        assert stats.hit_rate == 1.0
        # The sentinel itself never leaks into storage.
        assert all(cache.get(k, MISSING) is not MISSING for k in keys)
