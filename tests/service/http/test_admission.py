"""Admission control: the gate in isolation and the 503 surface over HTTP.

The gate unit tests pin the bounded-concurrency / bounded-queue / FIFO
hand-off semantics directly.  The HTTP tests drive the full app over a
stub server whose latency the test controls, so every 503 variant
(``overloaded``, ``timeout``, ``rebuild_in_progress``) is reached
deterministically — no sleeps calibrated against wall-clock luck.  The
stub never hits its cache (``cached`` returns ``None``); two tests over
a real server pin that a cache hit does not pass the gate at all and
that an admitted batch stays inside its one slot.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from types import SimpleNamespace

import pytest

from repro.core import TopologySearchSystem
from repro.service import TopologyServer
from repro.service.http import AdmissionGate, AdmissionRejected, TestClient, create_app

from tests.service.http.conftest import valid_query
from tests.service.test_core import wait_until


# ----------------------------------------------------------------------
# Gate unit tests
# ----------------------------------------------------------------------
class TestAdmissionGate:
    def test_admits_up_to_capacity_without_waiting(self):
        async def scenario():
            gate = AdmissionGate(max_concurrency=3, max_queue=0, queue_timeout=0.1)
            for _ in range(3):
                await gate.acquire()
            return gate.stats()

        stats = asyncio.run(scenario())
        assert stats["active"] == 3
        assert stats["admitted"] == 3
        assert stats["waiting"] == 0

    def test_queue_full_rejects_immediately(self):
        async def scenario():
            gate = AdmissionGate(max_concurrency=1, max_queue=0, queue_timeout=5.0)
            await gate.acquire()
            with pytest.raises(AdmissionRejected) as exc:
                await gate.acquire()
            return gate.stats(), exc.value

        stats, rejected = asyncio.run(scenario())
        assert rejected.reason == "queue_full"
        assert rejected.retry_after == 5
        assert stats["rejected_queue_full"] == 1
        assert stats["active"] == 1  # the holder keeps its slot

    def test_wait_times_out(self):
        async def scenario():
            gate = AdmissionGate(max_concurrency=1, max_queue=4, queue_timeout=0.05)
            await gate.acquire()
            with pytest.raises(AdmissionRejected) as exc:
                await gate.acquire()
            return gate.stats(), exc.value

        stats, rejected = asyncio.run(scenario())
        assert rejected.reason == "timeout"
        assert stats["rejected_timeout"] == 1
        assert stats["waiting"] == 0  # the timed-out waiter was removed

    def test_release_hands_slot_to_oldest_waiter_fifo(self):
        async def scenario():
            gate = AdmissionGate(max_concurrency=1, max_queue=4, queue_timeout=5.0)
            await gate.acquire()
            order = []

            async def waiter(tag):
                await gate.acquire()
                order.append(tag)

            tasks = []
            for tag in ("first", "second", "third"):
                tasks.append(asyncio.ensure_future(waiter(tag)))
                await asyncio.sleep(0.01)  # deterministic queue order
            assert gate.stats()["waiting"] == 3
            for _ in range(3):
                gate.release()
                await asyncio.sleep(0.01)
            await asyncio.gather(*tasks)
            gate.release()  # the last waiter's slot
            return order, gate.stats()

        order, stats = asyncio.run(scenario())
        assert order == ["first", "second", "third"]
        assert stats["active"] == 0
        assert stats["admitted"] == 4

    def test_handoff_does_not_change_active_count(self):
        async def scenario():
            gate = AdmissionGate(max_concurrency=1, max_queue=1, queue_timeout=5.0)
            await gate.acquire()
            task = asyncio.ensure_future(gate.acquire())
            await asyncio.sleep(0.01)
            gate.release()  # hands over, active stays 1
            await task
            mid = gate.stats()
            gate.release()
            return mid, gate.stats()

        mid, final = asyncio.run(scenario())
        assert mid["active"] == 1
        assert final["active"] == 0

    def test_cancelled_waiter_leaks_no_slot(self):
        async def scenario():
            gate = AdmissionGate(max_concurrency=1, max_queue=2, queue_timeout=5.0)
            await gate.acquire()
            task = asyncio.ensure_future(gate.acquire())
            await asyncio.sleep(0.01)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            gate.release()
            # Capacity must be fully restored: a fresh acquire succeeds
            # without waiting.
            await asyncio.wait_for(gate.acquire(), timeout=0.5)
            gate.release()
            return gate.stats()

        stats = asyncio.run(scenario())
        assert stats["active"] == 0
        assert stats["waiting"] == 0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            AdmissionGate(max_concurrency=0)
        with pytest.raises(ValueError):
            AdmissionGate(max_queue=-1)

    def test_retry_after_is_at_least_one_second(self):
        assert AdmissionGate(queue_timeout=0.05).retry_after == 1
        assert AdmissionGate(queue_timeout=7.4).retry_after == 7


# ----------------------------------------------------------------------
# The 503 surface over HTTP (stub server with controllable latency)
# ----------------------------------------------------------------------
class StubServer:
    """Duck-typed TopologyServer whose query latency the test controls:
    ``query`` blocks until the test sets ``release`` (or forever)."""

    def __init__(self):
        self.generation = 1
        self.release = threading.Event()
        self.started = threading.Semaphore(0)
        self.calls = 0
        self._lock = threading.Lock()

    def _result(self):
        return SimpleNamespace(
            method="stub",
            generation=self.generation,
            tids=[1, 2, 3],
            scores=[3.0, 2.0, 1.0],
            elapsed_seconds=0.001,
            planning_seconds=0.0,
            plan_choice="stub",
        )

    def cached(self, query, method=None):
        return None  # every request is work for the gate

    def query(self, query, method=None):
        with self._lock:
            self.calls += 1
        self.started.release()
        self.release.wait()
        return self._result()

    def rebuild(self, **kwargs):
        self.started.release()
        self.release.wait()
        self.generation += 1
        return SimpleNamespace(elapsed_seconds=0.01)

    def stats(self):  # pragma: no cover - not exercised here
        raise NotImplementedError

    def latency_stats(self):  # pragma: no cover
        return {}


QUERY = {"entity1": "A", "entity2": "B", "k": 3}


@pytest.fixture()
def stub():
    server = StubServer()
    yield server
    server.release.set()  # unblock any stuck worker threads


class TestHttp503:
    def test_queue_full_is_503_overloaded_with_retry_after(self, stub):
        with create_app(
            stub, max_concurrency=1, max_queue=0, queue_timeout=3.0
        ) as app:
            with TestClient(app) as client:
                blocker = threading.Thread(
                    target=client.post, args=("/query",), kwargs={"json": QUERY}
                )
                blocker.start()
                assert stub.started.acquire(timeout=5)  # engine call in flight
                try:
                    response = client.post("/query", json=QUERY)
                finally:
                    stub.release.set()
                    blocker.join(timeout=10)
        assert response.status == 503
        error = response.json()["error"]
        assert error["code"] == "overloaded"
        assert "queue_full" in error["message"]
        assert response.headers["retry-after"] == "3"

    def test_queue_wait_timeout_is_503_overloaded(self, stub):
        with create_app(
            stub, max_concurrency=1, max_queue=4, queue_timeout=0.1
        ) as app:
            with TestClient(app) as client:
                blocker = threading.Thread(
                    target=client.post, args=("/query",), kwargs={"json": QUERY}
                )
                blocker.start()
                assert stub.started.acquire(timeout=5)
                try:
                    response = client.post("/query", json=QUERY)  # queues, times out
                finally:
                    stub.release.set()
                    blocker.join(timeout=10)
        assert response.status == 503
        error = response.json()["error"]
        assert error["code"] == "overloaded"
        assert "timeout" in error["message"]
        assert response.headers["retry-after"] == "1"

    def test_request_timeout_is_503_timeout(self, stub):
        with create_app(stub, request_timeout=0.1, queue_timeout=2.0) as app:
            with TestClient(app) as client:
                try:
                    response = client.post("/query", json=QUERY)
                finally:
                    stub.release.set()
        assert response.status == 503
        error = response.json()["error"]
        assert error["code"] == "timeout"
        assert "0.1s" in error["message"]
        assert response.headers["retry-after"] == "2"

    def test_timed_out_call_keeps_its_slot_until_it_finishes(self, stub):
        """The 503 goes out at the deadline, but the engine call is
        still on its pool thread: the slot follows the call, so the
        gate keeps shedding until the work is really over."""
        with create_app(
            stub, max_concurrency=1, max_queue=0, request_timeout=0.1
        ) as app:
            with TestClient(app) as client:
                first = client.post("/query", json=QUERY)
                second = client.post("/query", json=QUERY)
                held, calls = app.gate.stats()["active"], stub.calls
                stub.release.set()
                wait_until(lambda: not app.gate.stats()["active"])
                third = client.post("/query", json=QUERY)
            stats = app.gate.stats()
        assert first.status == 503
        assert first.json()["error"]["code"] == "timeout"
        assert second.status == 503
        assert second.json()["error"]["code"] == "overloaded"
        assert (held, calls) == (1, 1)  # the shed request never reached the engine
        assert third.status == 200
        assert stub.calls == 2
        assert stats["active"] == 0

    def test_concurrent_rebuild_is_503_rebuild_in_progress(self, stub):
        with create_app(stub, rebuild_timeout=60.0) as app:
            with TestClient(app) as client:
                blocker = threading.Thread(
                    target=client.post, args=("/rebuild",), kwargs={"json": {}}
                )
                blocker.start()
                assert stub.started.acquire(timeout=5)  # rebuild in flight
                try:
                    response = client.post("/rebuild", json={})
                finally:
                    stub.release.set()
                    blocker.join(timeout=10)
        assert response.status == 503
        assert response.json()["error"]["code"] == "rebuild_in_progress"
        assert "retry-after" in response.headers

    def test_shed_requests_never_reach_the_engine(self, stub):
        with create_app(
            stub, max_concurrency=1, max_queue=0, queue_timeout=1.0
        ) as app:
            with TestClient(app) as client:
                blocker = threading.Thread(
                    target=client.post, args=("/query",), kwargs={"json": QUERY}
                )
                blocker.start()
                assert stub.started.acquire(timeout=5)
                try:
                    for _ in range(5):
                        assert client.post("/query", json=QUERY).status == 503
                finally:
                    stub.release.set()
                    blocker.join(timeout=10)
        assert stub.calls == 1  # only the admitted request executed

    def test_engine_exception_is_sanitized_500(self, stub):
        class Exploding(StubServer):
            def query(self, query, method=None):
                raise RuntimeError("secret internal state: /etc/passwd")

        with create_app(Exploding()) as app:
            with TestClient(app) as client:
                response = client.post("/query", json=QUERY)
        assert response.status == 500
        error = response.json()["error"]
        assert error["code"] == "internal"
        assert "RuntimeError" in error["message"]
        assert "passwd" not in error["message"]  # no detail leakage

    def test_admission_stats_count_the_shed(self, stub):
        with create_app(
            stub, max_concurrency=1, max_queue=0, queue_timeout=1.0
        ) as app:
            with TestClient(app) as client:
                blocker = threading.Thread(
                    target=client.post, args=("/query",), kwargs={"json": QUERY}
                )
                blocker.start()
                assert stub.started.acquire(timeout=5)
                try:
                    for _ in range(3):
                        client.post("/query", json=QUERY)
                finally:
                    stub.release.set()
                    blocker.join(timeout=10)
            stats = app.gate.stats()
        assert stats["admitted"] == 1
        assert stats["rejected_queue_full"] == 3
        assert stats["active"] == 0


class TestHitsBypassTheGate:
    def test_a_hit_is_answered_while_a_miss_holds_the_only_slot(
        self, server, monkeypatch
    ):
        """The gate sheds work, not answers already in memory: with its
        one slot held by a miss blocked in the engine and no queue, a
        cache hit still gets 200 while another miss gets 503."""
        entered, release = threading.Event(), threading.Event()
        search = server._search

        def blocking_search(generation, name, queries):
            entered.set()
            assert release.wait(10)
            return search(generation, name, queries)

        with create_app(
            server, max_concurrency=1, max_queue=0, queue_timeout=3.0
        ) as app:
            with TestClient(app) as client:
                warm = client.post("/query", json=valid_query())
                monkeypatch.setattr(server, "_search", blocking_search)
                blocker = threading.Thread(
                    target=client.post,
                    args=("/query",),
                    kwargs={"json": valid_query(k=5)},
                )
                blocker.start()
                assert entered.wait(5)  # the miss holds the only slot
                try:
                    hit = client.post("/query", json=valid_query())
                    shed = client.post("/query", json=valid_query(k=6))
                finally:
                    release.set()
                    blocker.join(timeout=10)
            stats = app.gate.stats()
        assert warm.status == 200
        assert hit.status == 200
        assert hit.json()["tids"] == warm.json()["tids"]
        assert shed.status == 503
        assert shed.json()["error"]["code"] == "overloaded"
        assert stats["admitted"] == 2  # the two engine calls, not the hit
        assert stats["rejected_queue_full"] == 1


class TestBatchStaysInItsSlot:
    def test_one_admitted_batch_is_one_engine_call_at_a_time(
        self, tiny_system, monkeypatch
    ):
        """Admission bounds how many engine calls are in flight — a
        ``/query_many`` batch included, whatever ``parallel`` it asks
        for: with one slot, a batch of distinct queries never has two
        ``system.search`` calls running at once."""
        lock = threading.Lock()
        active = peak = 0
        search = TopologySearchSystem.search

        @contextlib.contextmanager
        def in_flight():
            nonlocal active, peak
            with lock:
                active += 1
                peak = max(peak, active)
            try:
                yield
            finally:
                with lock:
                    active -= 1

        def tracked_search(self, *args, **kwargs):
            with in_flight():
                time.sleep(0.02)  # long enough for a fan-out to overlap
                return search(self, *args, **kwargs)

        monkeypatch.setattr(TopologySearchSystem, "search", tracked_search)
        queries = [
            valid_query(
                constraint1={"kind": "keyword", "column": "DESC", "keyword": keyword},
                k=k,
            )
            for keyword in ("kinase", "binding", "human", "membrane")
            for k in (2, 4)
        ]
        with TopologyServer(tiny_system) as server:
            with create_app(server, max_concurrency=1) as app:
                with TestClient(app) as client:
                    response = client.post(
                        "/query_many", json={"queries": queries, "parallel": 4}
                    )
                stats = app.gate.stats()
            executions = server.stats().executions
        assert response.status == 200
        assert executions == len(queries)
        assert peak == 1
        assert stats["admitted"] == 1
