"""End-to-end stress: hot rebuilds racing >= 8 HTTP client threads.

The PR-4 generation-consistency oracle, pushed through the whole wire
stack: every ``POST /query`` answer must match *one* generation's
single-threaded oracle exactly (the alternating build configurations
provably disagree, so a torn half-old/half-new answer cannot pass), the
generation stamps each thread observes must be monotone, and the
``GET /stats`` payload and the ``GET /metrics`` exposition polled
mid-storm must each satisfy the exact counter invariants — the
wire-visible form of the snapshot-consistency fix in
:meth:`repro.service.core.LatencyStats.snapshot`, and of ``/metrics``
being rendered from the one payload ``/stats`` serves.
"""

from __future__ import annotations

import threading

import pytest

from repro.biozon import BiozonConfig, generate
from repro.core import (
    AttributeConstraint,
    KeywordConstraint,
    TopologyQuery,
    TopologySearchSystem,
)
from repro.service import TopologyServer
from repro.service.http import TestClient, create_app

from tests.obs.test_metrics import parse_exposition

THREADS = 8
REBUILD_ROUNDS = 2

# Alternating rebuild configurations with provably different answers
# (asserted below): per-pair path cap on/off changes which topologies
# survive the build, so mixed-generation reads cannot look valid.
CONFIGS = {0: {"per_pair_path_limit": None}, 1: {"per_pair_path_limit": 1}}

KEYWORDS = ("kinase", "binding", "human")


def wire_query(keyword: str, k: int) -> dict:
    return {
        "entity1": "Protein",
        "entity2": "DNA",
        "constraint1": {"kind": "keyword", "column": "DESC", "keyword": keyword},
        "constraint2": {"kind": "attribute", "column": "TYPE", "value": "mRNA"},
        "max_length": 3,
        "k": k,
        "ranking": "rare",
    }


def oracle_query(keyword: str, k: int) -> TopologyQuery:
    return TopologyQuery(
        "Protein",
        "DNA",
        KeywordConstraint("DESC", keyword),
        AttributeConstraint("TYPE", "mRNA"),
        k=k,
        ranking="rare",
    )


WORKLOAD = [(kw, k) for kw in KEYWORDS for k in (2, 4)]


@pytest.fixture()
def private_server():
    """A private build: rebuilds here must not disturb the shared
    session fixture other tests read golden values from."""
    dataset = generate(BiozonConfig.tiny(seed=3))
    system = TopologySearchSystem(dataset.database, dataset.graph())
    system.build([("Protein", "DNA"), ("Protein", "Interaction")], max_length=3)
    with TopologyServer(system) as server:
        yield server


class TestRebuildUnderHttpLoad:
    def test_zero_torn_results_and_monotone_generations(self, private_server):
        server = private_server
        oracles = {}

        def snapshot_oracle():
            # Computed on the serving system while it is the stable
            # current generation; engine reads are thread-safe.
            oracles[server.generation] = {
                (kw, k): list(server.system.search(oracle_query(kw, k)).tids)
                for kw, k in WORKLOAD
            }

        snapshot_oracle()

        with create_app(server, max_concurrency=THREADS + 2, max_queue=64) as app:
            with TestClient(app) as client:
                stop = threading.Event()
                observed = []  # (thread, generation, workload key, tids)
                stats_payloads = []
                scrapes = []
                failures = []
                lock = threading.Lock()
                barrier = threading.Barrier(THREADS + 3)

                def reader(offset: int) -> None:
                    try:
                        barrier.wait()
                        i = 0
                        local = []
                        while not stop.is_set() or i == 0:
                            kw, k = WORKLOAD[(offset + i) % len(WORKLOAD)]
                            response = client.post("/query", json=wire_query(kw, k))
                            if response.status != 200:
                                raise AssertionError(
                                    f"reader got {response.status}: {response.body!r}"
                                )
                            payload = response.json()
                            local.append(
                                (offset, payload["generation"], (kw, k), payload["tids"])
                            )
                            i += 1
                        with lock:
                            observed.extend(local)
                    except Exception as error:  # pragma: no cover - reported below
                        stop.set()
                        with lock:
                            failures.append(error)

                def poller(path: str, decode, into: list) -> None:
                    try:
                        barrier.wait()
                        local = []
                        while not stop.is_set():
                            response = client.get(path)
                            assert response.status == 200
                            local.append(decode(response))
                        with lock:
                            into.extend(local)
                    except Exception as error:  # pragma: no cover
                        stop.set()
                        with lock:
                            failures.append(error)

                threads = [
                    threading.Thread(target=reader, args=(n,), name=f"reader-{n}")
                    for n in range(THREADS)
                ] + [
                    threading.Thread(
                        target=poller,
                        args=("/stats", lambda r: r.json(), stats_payloads),
                        name="stats-poller",
                    ),
                    threading.Thread(
                        target=poller,
                        args=("/metrics", lambda r: parse_exposition(r.text)[1], scrapes),
                        name="metrics-poller",
                    ),
                ]
                for thread in threads:
                    thread.start()

                rebuild_responses = []
                try:
                    barrier.wait()
                    for round_number in range(REBUILD_ROUNDS):
                        response = client.post(
                            "/rebuild", json=CONFIGS[(round_number + 1) % 2]
                        )
                        assert response.status == 200, response.body
                        rebuild_responses.append(response.json())
                        snapshot_oracle()
                finally:
                    stop.set()
                    for thread in threads:
                        thread.join(timeout=120)

                assert failures == []
                final_stats = client.get("/stats").json()

        # --- rebuilds all landed, generations advanced one at a time
        assert [r["generation"] for r in rebuild_responses] == [2, 3]
        assert [r["previous_generation"] for r in rebuild_responses] == [1, 2]
        assert len(oracles) == REBUILD_ROUNDS + 1

        # --- the oracle can actually detect tearing
        assert oracles[1] != oracles[2]

        # --- zero torn results: every answer is exactly one generation's
        torn = [
            entry
            for entry in observed
            if oracles[entry[1]][entry[2]] != entry[3]
        ]
        assert torn == []
        assert {entry[1] for entry in observed} <= set(oracles)
        assert len(observed) >= THREADS  # every thread completed >= 1 query

        # --- per-thread generation stamps are monotone (no time travel)
        by_thread = {}
        for thread_id, generation, _, _ in observed:
            by_thread.setdefault(thread_id, []).append(generation)
        for generations in by_thread.values():
            assert generations == sorted(generations)

        # --- counter invariants held in every polled /stats payload
        assert stats_payloads, "stats poller never completed a poll"
        for payload in stats_payloads + [final_stats]:
            cache = payload["result_cache"]
            assert cache["hits"] + cache["misses"] == payload["requests"]
            assert cache["misses"] == payload["executions"] + payload["coalesced"]
            assert payload["failures"] == 0
            for snap in payload["latency"].values():
                assert snap["p50_seconds"] <= snap["p95_seconds"] <= snap["p99_seconds"]
                if snap["count"]:
                    assert snap["min_seconds"] <= snap["p50_seconds"]
                    assert snap["p99_seconds"] <= snap["max_seconds"]

        # --- ...and in every /metrics scrape, which renders that payload
        assert scrapes, "metrics poller never completed a scrape"
        for samples in scrapes:
            value = {name: series[0][1] for name, series in samples.items()}
            assert (
                value["repro_cache_hits"] + value["repro_cache_misses"]
                == value["repro_server_requests"]
            )
            assert (
                value["repro_cache_misses"]
                == value["repro_server_executions"] + value["repro_server_coalesced"]
            )

        # --- the server agrees with what went over the wire
        stats = server.stats()
        assert stats.rebuilds == REBUILD_ROUNDS
        assert stats.requests == len(observed)
        assert final_stats["generation"] == REBUILD_ROUNDS + 1

    def test_concurrent_rebuild_storm_advances_generation_monotonically(
        self, private_server
    ):
        """Many threads all demanding rebuilds: exactly one runs at a
        time (the rest get 503 rebuild_in_progress or queue behind the
        app-level lock), and the generation advances by exactly the
        number of 200s."""
        server = private_server
        with create_app(server) as app:
            with TestClient(app) as client:
                results = []
                lock = threading.Lock()
                barrier = threading.Barrier(4)

                def rebuilder(n: int) -> None:
                    barrier.wait()
                    response = client.post(
                        "/rebuild", json=CONFIGS[n % 2]
                    )
                    with lock:
                        results.append(response)

                threads = [
                    threading.Thread(target=rebuilder, args=(n,)) for n in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=300)

                statuses = sorted(r.status for r in results)
                succeeded = [r for r in results if r.status == 200]
                rejected = [r for r in results if r.status == 503]
                assert len(succeeded) + len(rejected) == 4
                assert len(succeeded) >= 1
                for response in rejected:
                    assert response.json()["error"]["code"] == "rebuild_in_progress"
                    assert "retry-after" in response.headers
                # Generations from the 200s are unique and contiguous.
                generations = sorted(r.json()["generation"] for r in succeeded)
                assert generations == list(
                    range(2, 2 + len(succeeded))
                ), statuses
                assert server.generation == 1 + len(succeeded)
