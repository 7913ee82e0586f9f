"""Persistence + service benchmark: build-vs-load speedup, cache hits.

The paper separates an expensive offline phase from cheap online
dispatch (Figure 10) but leaves cold-start implicit — the topology
tables are assumed to already live in the host database.  This harness
measures that assumption made real:

* ``build()`` vs ``load_system()`` wall-clock on the default Biozon
  generator instance, asserting the snapshot restore is at least 10x
  faster than recomputing the offline phase, and that every one of the
  nine query methods answers identically before and after the
  round-trip;
* the :class:`~repro.service.TopologyServer` LRU cache under a skewed
  online workload, reporting hit rate and per-method engine latency.
"""

from __future__ import annotations

import os
import tempfile
import time

from repro.analysis import render_table
from repro.biozon import BiozonConfig, generate
from repro.core import (
    ALL_METHOD_NAMES,
    AttributeConstraint,
    KeywordConstraint,
    NoConstraint,
    TopologyQuery,
    TopologySearchSystem,
)
from repro.persist import load_system, save_system, snapshot_info
from repro.service import TopologyServer

from benchmarks.common import emit, emit_json

# Methods that evaluate the whole result set (no k) vs. top-k methods.
EXHAUSTIVE_METHODS = ("sql", "full-top", "fast-top")

SPEEDUP_FLOOR = 10.0


def _default_system() -> TopologySearchSystem:
    """The acceptance-criterion instance: the generator's defaults."""
    ds = generate(BiozonConfig())
    return TopologySearchSystem(ds.database, ds.graph())


def _query_for(method: str, keyword: str = "kinase") -> TopologyQuery:
    if method in EXHAUSTIVE_METHODS:
        return TopologyQuery(
            "Protein",
            "DNA",
            KeywordConstraint("DESC", keyword),
            NoConstraint(),
        )
    return TopologyQuery(
        "Protein",
        "DNA",
        KeywordConstraint("DESC", keyword),
        AttributeConstraint("TYPE", "mRNA"),
        k=5,
        ranking="rare",
    )


def test_persistence_speedup(benchmark):
    system = _default_system()
    t0 = time.perf_counter()
    system.build([("Protein", "DNA"), ("Protein", "Interaction")], max_length=3)
    build_seconds = time.perf_counter() - t0

    path = os.path.join(tempfile.mkdtemp(prefix="repro-bench-"), "default.topo")
    t0 = time.perf_counter()
    save_system(system, path)
    save_seconds = time.perf_counter() - t0

    def cold_start():
        return load_system(path)

    restored = benchmark.pedantic(cold_start, iterations=1, rounds=3)
    load_seconds = min(benchmark.stats.stats.data)
    speedup = build_seconds / load_seconds
    info = snapshot_info(path)

    # Round-trip equality across all nine methods.
    for method in ALL_METHOD_NAMES:
        query = _query_for(method)
        before = system.search(query, method=method)
        after = restored.search(query, method=method)
        assert before.tids == after.tids, method
        assert before.scores == after.scores, method

    emit(
        "persistence_speedup",
        render_table(
            ["phase", "seconds", "notes"],
            [
                ["build()", f"{build_seconds:.3f}", "offline phase from scratch"],
                ["save_system()", f"{save_seconds:.3f}", f"{info.file_bytes / 1024:.0f} KiB snapshot"],
                ["load_system()", f"{load_seconds:.3f}", "cold start from snapshot"],
                ["speedup", f"{speedup:.1f}x", f"floor {SPEEDUP_FLOOR:.0f}x"],
                ["topologies", str(info.topologies), f"{info.alltops_rows} AllTops rows"],
            ],
            title="Persistence: build vs snapshot restore (default instance)",
        ),
    )
    emit_json(
        "persistence",
        {
            "cold_start": {
                "build_seconds": build_seconds,
                "save_seconds": save_seconds,
                "load_seconds": load_seconds,
                "speedup": speedup,
                "speedup_floor": SPEEDUP_FLOOR,
                "snapshot_bytes": info.file_bytes,
                "topologies": info.topologies,
                "alltops_rows": info.alltops_rows,
            }
        },
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"load_system() must be >= {SPEEDUP_FLOOR}x faster than build(); "
        f"got {speedup:.1f}x ({build_seconds:.3f}s vs {load_seconds:.3f}s)"
    )


def test_service_cache_hit_rate(benchmark):
    system = _default_system()
    system.build([("Protein", "DNA"), ("Protein", "Interaction")], max_length=3)
    service = TopologyServer(system, cache_size=256)

    # A skewed online workload: 10 distinct queries, the head queried
    # far more often than the tail (the access pattern caching exists
    # for).  200 requests -> at most 10 engine executions.
    keywords = ["kinase", "binding", "human", "putative", "conserved",
                "receptor", "nuclear", "ribosomal", "membrane", "factor"]
    workload = []
    for i in range(200):
        keyword = keywords[0] if i % 2 else keywords[i % len(keywords)]
        workload.append(_query_for("fast-top-k-opt", keyword))
    distinct = len(set(workload))

    def run_workload():
        return service.query_many(workload)

    results = benchmark.pedantic(run_workload, iterations=1, rounds=1)
    assert len(results) == len(workload)

    stats = service.cache_stats()
    latency = service.latency_stats()["fast-top-k-opt"]
    emit(
        "persistence_cache",
        render_table(
            ["metric", "value"],
            [
                ["requests", str(stats.requests)],
                ["cache hits", str(stats.hits)],
                ["cache misses", str(stats.misses)],
                ["hit rate", f"{100 * stats.hit_rate:.1f}%"],
                ["engine executions", str(latency["count"])],
                ["engine mean latency", f"{latency['mean_seconds'] * 1e3:.2f} ms"],
                ["engine p95 latency", f"{latency['p95_seconds'] * 1e3:.2f} ms"],
            ],
            title="TopologyServer LRU cache under a skewed workload",
        ),
    )
    emit_json(
        "persistence",
        {
            "service_cache": {
                "requests": stats.requests,
                "hits": stats.hits,
                "misses": stats.misses,
                "hit_rate": stats.hit_rate,
                "engine_executions": latency["count"],
                "engine_mean_seconds": latency["mean_seconds"],
                "engine_p95_seconds": latency["p95_seconds"],
                "plan_cache": {
                    "hits": service.plan_cache_stats().hits,
                    "misses": service.plan_cache_stats().misses,
                },
            }
        },
    )
    # Few distinct queries over 200 requests: the hit rate must be high
    # and the engine must have run each distinct query exactly once.
    assert stats.misses == distinct
    assert stats.hit_rate >= 0.9
