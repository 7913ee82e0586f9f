"""ServingCore: the one request path, tested once.

Everything here drives :class:`repro.service.ServingCore` directly with
a stub ``execute`` — no engine, no worker processes — so the
single-flight / cache / counter protocol is pinned where it lives.
``TopologyServer`` and ``ShardCoordinator`` only add an execution; their
engine-level stress suites (``test_concurrency.py``,
``tests/shard/test_coordinator.py``, ``http/test_stress.py``) run on top.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from typing import Callable, List, Sequence

import pytest

from repro.core import KeywordConstraint, NoConstraint, TopologyQuery
from repro.core.methods import MethodResult
from repro.errors import TopologyError
from repro.service import ReadWriteLock, ServingCore

JOIN_TIMEOUT = 30.0


def q(word: str) -> TopologyQuery:
    return TopologyQuery("Protein", "DNA", KeywordConstraint("DESC", word), NoConstraint())


class Boom(RuntimeError):
    pass


class StubExecute:
    """An ``execute`` that records its calls, optionally blocks on a
    gate, sleeps, and raises for chosen queries."""

    def __init__(self, delay: float = 0.0) -> None:
        self.delay = delay
        self.calls: List[tuple] = []
        self.fail_on: set = set()
        self.entered = threading.Event()
        self.gate: threading.Event | None = None
        self._lock = threading.Lock()

    def __call__(self, generation: int, name: str, queries: List[TopologyQuery]):
        with self._lock:
            self.calls.append((generation, name, list(queries)))
        self.entered.set()
        if self.gate is not None:
            assert self.gate.wait(JOIN_TIMEOUT)
        if self.delay:
            time.sleep(self.delay)
        if self.fail_on.intersection(queries):
            raise Boom("execute failed")
        return [
            MethodResult(method=name, query=query, tids=[1], scores=None, elapsed_seconds=1e-4)
            for query in queries
        ]

    @property
    def executed(self) -> List[tuple]:
        """Every (generation, method, query) executed, flattened."""
        with self._lock:
            return [(g, n, query) for g, n, queries in self.calls for query in queries]


def make_core(cache_size: int = 64) -> ServingCore:
    return ServingCore(cache_size, "m", slow_query_seconds=None, source="test")


def run_threads(targets: Sequence[Callable[[], None]]) -> None:
    """Run every target on its own thread; all must finish in time."""
    threads = [threading.Thread(target=target, daemon=True) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOIN_TIMEOUT)
    assert not [t for t in threads if t.is_alive()], "a request never returned"


def wait_until(condition: Callable[[], bool]) -> None:
    deadline = time.monotonic() + JOIN_TIMEOUT
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def assert_invariants(core: ServingCore) -> None:
    stats = core.stats()
    cache = stats.result_cache
    assert cache.hits + cache.misses == stats.requests
    assert cache.misses == stats.executions + stats.coalesced
    assert stats.in_flight == 0


class TestRequestPath:
    def test_hit_own_and_batch_duplicates(self):
        core, execute = make_core(), StubExecute()
        a, b = q("a"), q("b")
        (first,) = core._serve("m", [a], execute)
        assert core._serve("m", [a], execute) == [first]  # hit: the same object
        assert first.generation == 1
        results = core._serve("m", [a, b, b, a], execute)
        assert results[0] is results[3] is first
        assert results[1] is results[2]
        stats = core.stats()
        assert (stats.requests, stats.executions, stats.coalesced) == (6, 2, 1)
        assert stats.result_cache.hits == 3
        assert execute.executed == [(1, "m", a), (1, "m", b)]
        assert core.latency_stats()["m"]["count"] == 2  # executions only
        assert_invariants(core)

    def test_method_is_part_of_the_key(self):
        core, execute = make_core(), StubExecute()
        core._serve("m", [q("a")], execute)
        core._serve("n", [q("a")], execute)
        assert core.stats().executions == 2
        assert set(core.latency_stats()) == {"m", "n"}

    def test_empty_list(self):
        core = make_core()
        assert core._serve("m", [], StubExecute()) == []
        assert core.stats().requests == 0

    def test_short_reply_fails_the_flights_instead_of_hanging(self):
        core = make_core()
        with pytest.raises(TopologyError, match="returned 0 results"):
            core._serve("m", [q("a"), q("b")], lambda generation, name, queries: [])
        stats = core.stats()
        assert (stats.failures, stats.in_flight) == (2, 0)
        assert_invariants(core)


class TestCachedProbe:
    """``cached``: the non-blocking hit probe a front end calls before it
    decides whether a request needs a worker thread."""

    def test_a_miss_moves_no_counter_and_the_request_counts_once(self):
        core, execute = make_core(), StubExecute()
        a = q("a")
        assert core.cached(a, "m") is None
        stats = core.stats()
        assert (stats.requests, stats.result_cache.hits, stats.result_cache.misses) == (0, 0, 0)
        core._serve("m", [a], execute)
        stats = core.stats()
        assert (stats.requests, stats.result_cache.misses, stats.executions) == (1, 1, 1)
        assert_invariants(core)

    def test_a_hit_counts_requests_and_hits_once_each(self):
        core, execute = make_core(), StubExecute()
        a = q("a")
        (first,) = core._serve("m", [a], execute)
        assert core.cached(a, "m") is first
        stats = core.stats()
        assert (stats.requests, stats.result_cache.hits, stats.result_cache.misses) == (2, 1, 1)
        assert core.cached(a) is first  # no method: the default one
        assert core.cached(a, "n") is None  # the method is part of the key
        stats = core.stats()
        assert (stats.requests, stats.result_cache.hits) == (3, 2)
        assert len(execute.calls) == 1
        assert_invariants(core)

    def test_a_cached_empty_answer_is_a_hit(self):
        core = make_core()
        a = q("a")

        def empty(generation: int, name: str, queries: List[TopologyQuery]):
            return [
                MethodResult(method=name, query=query, tids=[], scores=None, elapsed_seconds=1e-4)
                for query in queries
            ]

        (first,) = core._serve("m", [a], empty)
        assert core.cached(a, "m") is first
        assert core.stats().result_cache.hits == 1
        assert_invariants(core)

    def test_after_invalidate_or_a_swap_the_probe_misses(self):
        core, execute = make_core(), StubExecute()
        a = q("a")
        core._serve("m", [a], execute)
        core.invalidate()
        assert core.cached(a, "m") is None
        (again,) = core._serve("m", [a], execute)
        assert core.cached(a, "m") is again
        with core._swap():
            pass
        assert core.cached(a, "m") is None
        (fresh,) = core._serve("m", [a], execute)
        assert (again.generation, fresh.generation) == (1, 2)
        assert core.cached(a, "m") is fresh
        assert len(execute.calls) == 3
        assert_invariants(core)


class TestConcurrency:
    def test_mixed_singles_and_batches_keep_exact_counters(self):
        """>= 8 threads, more than cores, mixing one-element and batch
        requests over a key space larger than the cache (so evictions
        and re-executions happen too)."""
        core, execute = make_core(cache_size=4), StubExecute(delay=0.0002)
        keys = [q(f"w{i}") for i in range(10)]
        submitted = [0] * 12
        wrong: List[str] = []

        def client(at: int) -> None:
            rng = random.Random(at)
            for _ in range(60):
                name = rng.choice(["m", "n"])
                size = 1 if rng.random() < 0.5 else rng.randint(2, 6)
                batch = [rng.choice(keys) for _ in range(size)]
                results = core._serve(name, batch, execute)
                submitted[at] += size
                for query, result in zip(batch, results):
                    if result.query != query:
                        wrong.append("query")
                    if result.method != name or result.generation != 1:
                        wrong.append("stamp")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_threads([lambda at=at: client(at) for at in range(len(submitted))])
        finally:
            sys.setswitchinterval(interval)
        assert not wrong
        stats = core.stats()
        assert stats.requests == sum(submitted)
        assert stats.executions == len(execute.executed)
        assert stats.failures == 0
        assert sum(s["count"] for s in core.latency_stats().values()) == stats.executions
        assert_invariants(core)

    def test_batch_and_concurrent_singles_execute_each_key_once(self):
        """Divergence (c): a batch registers flights, so singles for the
        keys it is executing join it instead of executing again."""
        core, execute = make_core(), StubExecute()
        execute.gate = threading.Event()
        keys = [q("a"), q("b"), q("c")]
        batch_results: List[MethodResult] = []
        single_results: List[MethodResult] = []

        def batch() -> None:
            batch_results.extend(core._serve("m", keys, execute))

        def single(at: int) -> None:
            single_results.extend(core._serve("m", [keys[at % 3]], execute))

        owner = threading.Thread(target=batch, daemon=True)
        owner.start()
        assert execute.entered.wait(JOIN_TIMEOUT)
        assert core.stats().in_flight == 3
        singles = [threading.Thread(target=single, args=(at,), daemon=True) for at in range(9)]
        for thread in singles:
            thread.start()
        wait_until(lambda: core.stats().coalesced == 9)
        execute.gate.set()
        for thread in [owner, *singles]:
            thread.join(JOIN_TIMEOUT)
            assert not thread.is_alive()
        assert len(execute.calls) == 1  # one execute, three queries
        assert core.stats().executions == 3
        assert {id(r) for r in single_results} == {id(r) for r in batch_results}
        assert_invariants(core)

    def test_failed_execute_wakes_every_waiter_and_leaves_no_flight(self):
        core, execute = make_core(), StubExecute()
        execute.gate = threading.Event()
        a, b = q("a"), q("b")
        execute.fail_on = {b}
        errors: List[BaseException] = []

        def request(queries: List[TopologyQuery]) -> None:
            try:
                core._serve("m", queries, execute)
            except Boom as error:
                errors.append(error)

        owner = threading.Thread(target=request, args=([a, b],), daemon=True)
        owner.start()
        assert execute.entered.wait(JOIN_TIMEOUT)
        waiters = [
            threading.Thread(target=request, args=([[a], [b]][at % 2],), daemon=True)
            for at in range(8)
        ]
        for thread in waiters:
            thread.start()
        wait_until(lambda: core.stats().coalesced == 8)
        execute.gate.set()
        for thread in [owner, *waiters]:
            thread.join(JOIN_TIMEOUT)
            assert not thread.is_alive()
        assert len(errors) == 9 and len({id(e) for e in errors}) == 1
        stats = core.stats()
        assert (stats.failures, stats.in_flight, stats.result_cache.size) == (2, 0, 0)
        assert_invariants(core)
        # Nothing is stuck: the good key executes on the next request.
        execute.gate = None
        run_threads([lambda: core._serve("m", [a], execute)])
        assert core.stats().executions == 3


class TestReadWriteLock:
    def test_a_writer_waiting_for_the_mutex_holds_back_new_readers(self):
        """Readers looping on the lock hand its mutex among themselves,
        and the mutex is not fair: a writer that counted itself only
        once it held the mutex could wait behind them for minutes on
        one core.  It announces itself first, so a reader that wins the
        mutex over it parks until the writer is done."""
        rw = ReadWriteLock()
        writer_in, release, reader_in = (threading.Event() for _ in range(3))

        def writer() -> None:
            with rw.write_locked():
                writer_in.set()
                release.wait(JOIN_TIMEOUT)

        def reader() -> None:
            with rw.read_locked():
                reader_in.set()

        threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
        with rw._cond:  # a reader holds the mutex
            threads[0].start()
            deadline = time.monotonic() + JOIN_TIMEOUT
            while not rw._writing and time.monotonic() < deadline:
                time.sleep(0.001)
            assert rw._writing  # announced before it holds the mutex
            threads[1].start()
        assert writer_in.wait(JOIN_TIMEOUT)
        assert not reader_in.is_set()
        release.set()
        assert reader_in.wait(JOIN_TIMEOUT)
        for thread in threads:
            thread.join(JOIN_TIMEOUT)


class TestGenerations:
    def test_swap_drops_the_cache_and_bumps_the_generation(self):
        core, execute = make_core(), StubExecute()
        core._serve("m", [q("a")], execute)
        installed = []
        with core._swap():
            installed.append(core.generation)  # body runs before the bump
        assert installed == [1]
        stats = core.stats()
        assert (stats.generation, stats.rebuilds, stats.restores) == (2, 1, 0)
        assert stats.result_cache.size == 0
        with core._swap(restore=True):
            pass
        assert (core.generation, core.stats().restores) == (3, 1)
        (again,) = core._serve("m", [q("a")], execute)
        assert again.generation == 3
        assert core.stats().executions == 2

    def test_a_failed_swap_body_changes_nothing(self):
        core, execute = make_core(), StubExecute()
        core._serve("m", [q("a")], execute)
        with pytest.raises(Boom):
            with core._swap():
                raise Boom("successor not ready")
        stats = core.stats()
        assert (stats.generation, stats.rebuilds, stats.result_cache.size) == (1, 0, 1)
        run_threads([lambda: core._serve("m", [q("a")], execute)])  # lease released

    def test_results_settled_after_a_swap_are_not_cached(self):
        """A leaseless ``_settle`` (the replica fan-out) that a swap
        overtakes: its results keep the admitted generation's stamp,
        never enter the new generation's cache, and never serve a
        new-generation request."""
        core, execute = make_core(), StubExecute()
        a = q("a")
        with core._rw.read_locked():
            admission = core._admit("m", [a])
        with core._swap():
            pass
        # A new-generation request for the same key does not join the
        # old flight; it executes on its own generation.
        results: List[MethodResult] = []
        run_threads([lambda: results.extend(core._serve("m", [a], execute))])
        assert results[0].generation == 2
        core._settle(admission, execute)
        (stale,) = core._collect(admission)
        assert stale.generation == 1
        assert [g for g, _, _ in execute.executed] == [2, 1]
        assert core._serve("m", [a], execute) == results  # the cache holds gen 2's
        assert core.stats().result_cache.size == 1
        assert_invariants(core)

    def test_waiting_on_a_leaseless_owner_does_not_hold_up_a_swap(self):
        """A request that joined a leaseless execution (a single query
        for a key a replica fan-out is computing) waits with its lease
        released: a swap goes through at once, and so does every reader
        queued behind the swap, while the fan-out is still running."""
        core, execute = make_core(), StubExecute()
        execute.gate = threading.Event()
        a = q("a")
        with core._rw.read_locked():
            admission = core._admit("m", [a])
        owner = threading.Thread(
            target=core._settle, args=(admission, execute), daemon=True
        )
        owner.start()
        assert execute.entered.wait(JOIN_TIMEOUT)
        joined: List[MethodResult] = []
        waiter = threading.Thread(
            target=lambda: joined.extend(core._serve("m", [a], execute)), daemon=True
        )
        waiter.start()
        wait_until(lambda: core.stats().coalesced == 1)

        def swap() -> None:
            with core._swap():
                pass

        run_threads([swap])  # the fan-out is still gated
        fresh = StubExecute()
        (after,) = core._serve("m", [q("b")], fresh)  # readers flow again
        assert after.generation == 2
        assert owner.is_alive() and waiter.is_alive()
        execute.gate.set()
        for thread in (owner, waiter):
            thread.join(JOIN_TIMEOUT)
            assert not thread.is_alive()
        assert joined == core._collect(admission)
        assert joined[0].generation == 1  # the generation it was admitted in
        assert core.stats().result_cache.size == 1  # b only
        assert_invariants(core)

    def test_invalidate_is_not_undone_by_a_leaseless_execution(self):
        """A leaseless execution in flight across ``invalidate()``: its
        result reaches its own waiters, not the cleared cache, and a
        request made after the invalidate executes instead of joining
        it."""
        core, execute = make_core(), StubExecute()
        a = q("a")
        with core._rw.read_locked():
            admission = core._admit("m", [a])
        core.invalidate()
        (after,) = core._serve("m", [a], execute)
        core._settle(admission, execute)
        (before,) = core._collect(admission)
        assert before is not after
        assert len(execute.calls) == 2
        assert core._serve("m", [a], execute) == [after]
        assert core.stats().result_cache.size == 1
        assert_invariants(core)

    def test_invalidate_keeps_counters(self):
        core, execute = make_core(), StubExecute()
        core._serve("m", [q("a")], execute)
        core.invalidate()
        stats = core.stats()
        assert (stats.generation, stats.requests, stats.result_cache.size) == (1, 1, 0)
