"""Serve concurrent traffic from one shared engine, rebuilding live.

Walks :class:`~repro.service.TopologyServer` end to end on a synthetic
Biozon instance:

1. concurrent queries — 8 threads hammer the server; the result cache
   and single-flight deduplication keep engine executions at one per
   distinct query, with exact counters;
2. a thundering herd — 6 simultaneous *identical* queries plan and
   execute exactly once, everyone shares the answer;
3. a hot rebuild — the next generation builds on a cloned base while
   traffic keeps flowing, then swaps in; results are stamped with the
   generation that produced them;
4. batches — ``query_many(batch)`` runs query by query on the caller's
   thread, planning once per class through the plan cache;
   ``query_many(batch, parallel=2, mode="process")`` deals the batch
   over warm replica processes, the way past the GIL.

Run:  python examples/concurrent_serving.py
"""

from __future__ import annotations

import threading

from repro.biozon import BiozonConfig, generate
from repro.core import (
    AttributeConstraint,
    KeywordConstraint,
    TopologyQuery,
    TopologySearchSystem,
)
from repro.service import TopologyServer


def make_query(keyword: str, k: int = 4) -> TopologyQuery:
    return TopologyQuery(
        "Protein",
        "DNA",
        KeywordConstraint("DESC", keyword),
        AttributeConstraint("TYPE", "mRNA"),
        k=k,
        ranking="rare",
    )


def main() -> None:
    ds = generate(BiozonConfig.tiny(seed=4))
    system = TopologySearchSystem(ds.database, ds.graph())
    system.build([("Protein", "DNA")], max_length=3)

    workload = [make_query(kw, k) for kw in ("kinase", "binding", "human") for k in (2, 4)]

    with TopologyServer(system) as server:
        # 1. Concurrent traffic: 8 threads, repeated-shape workload.
        def reader(offset: int) -> None:
            for i in range(50):
                server.query(workload[(offset + i) % len(workload)])

        threads = [threading.Thread(target=reader, args=(n,)) for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = server.stats()
        print("=== 8 threads, 400 requests ===")
        print(
            f"requests={stats.requests} hits={stats.result_cache.hits} "
            f"executions={stats.executions} coalesced={stats.coalesced}"
        )
        assert stats.executions == len(workload)  # one engine run per key

        # 2. Thundering herd: identical queries, single-flight.
        server.invalidate()
        barrier = threading.Barrier(6)
        herd_before = server.stats().executions

        def rush() -> None:
            barrier.wait()
            server.query(make_query("kinase"))

        herd = [threading.Thread(target=rush) for _ in range(6)]
        for t in herd:
            t.start()
        for t in herd:
            t.join()
        print("\n=== thundering herd (6 identical queries) ===")
        print(f"engine executions: {server.stats().executions - herd_before}")

        # 3. Hot rebuild: generation swap under (potential) load.
        before = server.query(make_query("kinase"))
        report = server.rebuild()
        after = server.query(make_query("kinase"))
        print("\n=== hot rebuild ===")
        print(
            f"rebuilt {report.alltops.distinct_topologies} topologies in "
            f"{report.elapsed_seconds:.2f}s; generation "
            f"{before.generation} -> {after.generation}; answers match: "
            f"{before.tids == after.tids}"
        )

        # 4. Batches: serial on this thread, then over replica processes.
        batch = workload * 3
        server.invalidate()
        plan_before = server.plan_cache_stats()
        serial = server.query_many(batch)
        plan_after = server.plan_cache_stats()
        print("\n=== query_many(batch), 18 queries ===")
        print(
            f"results={len(serial)} plan lookups="
            f"{plan_after.requests - plan_before.requests} plan hits="
            f"{plan_after.hits - plan_before.hits} "
            f"(one execution per distinct query, one plan per class)"
        )
        server.invalidate()
        replicated = server.query_many(batch, parallel=2, mode="process")
        print('\n=== query_many(batch, parallel=2, mode="process") ===')
        print(
            f"results={len(replicated)} answers match serial: "
            f"{[r.tids for r in replicated] == [r.tids for r in serial]}"
        )
        assert [r.tids for r in replicated] == [r.tids for r in serial]
        print(f"final generation: {server.generation}")


if __name__ == "__main__":
    main()
