"""The metric catalogue: every name the benchmark prints, with its unit.

``BENCHMARK.json`` lists the same names (plus direction and bound);
``python -m bench --check`` fails if the two ever disagree.

A run with ``--trace 1`` prints *every* per-layer metric for whichever
workload ran.  A layer that does no work on a workload reports 0 —
``shard.split_s`` on ``http_hot`` is 0 s because nothing was split —
which is also how the table in the README reads: a non-zero cell is a
layer the workload exercises.
"""

from __future__ import annotations

from typing import Any, Dict

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "snapshot_mb": "MB",
}

PER_LAYER: Dict[str, str] = {
    # service.http — the depth ladder on the http_* workloads
    "http.netserver.self_us": "us",
    "http.app.self_us": "us",
    "http.schemas.parse_us": "us",
    "http.schemas.encode_us": "us",
    "http.schemas.encode_bytes": "B",
    "http.admission.admitted": "count",
    "http.admission.rejected": "count",
    # service.server / service.cache
    "service.server.hit_us": "us",
    "service.server.miss_overhead_us": "us",
    "service.server.coalesced": "count",
    "service.cache.hit_ratio": "ratio",
    "service.cache.evictions": "count",
    # core.plan / core.methods / core.engine
    "core.engine.search_us": "us",
    "core.plan.plan_us": "us",
    "core.plan.cache_hit_ratio": "ratio",
    "core.plan.strategy_share.regular": "ratio",
    "core.plan.strategy_share.et-idgj": "ratio",
    "core.plan.strategy_share.et-hdgj": "ratio",
    "core.methods.execute_us": "us",
    "core.methods.execute_p95_us": "us",
    "core.methods.execute_us.full-top": "us",
    "core.methods.execute_us.fast-top": "us",
    "core.methods.execute_us.full-top-k": "us",
    "core.methods.execute_us.fast-top-k": "us",
    # relational — exact executor counters per query
    "relational.rows_scanned_per_query": "count",
    "relational.index_probes_per_query": "count",
    "relational.rows_joined_per_query": "count",
    "relational.subqueries_per_query": "count",
    "relational.groups_skipped_per_query": "count",
    "relational.work_per_result": "ratio",
    # service.coordinator / shard
    "service.coordinator.scatter_us": "us",
    "service.coordinator.overhead_us": "us",
    "service.coordinator.fanout": "ratio",
    "service.coordinator.fanout_point": "ratio",
    "service.coordinator.fanout_keyword": "ratio",
    "service.coordinator.shard_failures": "count",
    "service.coordinator.shard_timeouts": "count",
    "shard.engine_max_us": "us",
    "shard.engine_sum_us": "us",
    "shard.row_skew": "ratio",
    "shard.bytes_over_single": "ratio",
    "shard.rss_over_single": "ratio",
    "shard.split_s": "s",
    "shard.verify_s": "s",
    # the offline phase
    "biozon.generate_s": "s",
    "core.engine.build_s": "s",
    "core.alltops.compute_s": "s",
    "core.alltops.rows": "count",
    "core.pruning.prune_s": "s",
    "core.pruning.kept_ratio": "ratio",
    "core.store.materialize_s": "s",
    "core.store.lefttops_rows": "count",
    "core.store.topologies": "count",
    "parallel.compute_s.w2": "s",
    "parallel.merge_s": "s",
    "parallel.speedup_w2": "ratio",
    "persist.save_s": "s",
    "persist.load_s": "s",
    "persist.bytes_per_alltops_row": "B",
    "offline.total_s": "s",
    "service.server.rebuild_s": "s",
    "service.server.rebuild_read_p95_us": "us",
    "service.server.rebuild_reads": "count",
    # the traced run itself
    "bench.trace_d0_us": "us",
    "bench.trace_overhead_ratio": "ratio",
    "bench.trace_requests": "count",
}

# Per-layer metrics that must repeat exactly between two runs of one
# seed on one commit (counts, never times).
EXACT = (
    "http.admission.admitted",
    "http.admission.rejected",
    "service.cache.hit_ratio",
    "service.cache.evictions",
    "relational.rows_scanned_per_query",
    "relational.index_probes_per_query",
    "relational.rows_joined_per_query",
    "relational.subqueries_per_query",
    "relational.groups_skipped_per_query",
    "relational.work_per_result",
    "service.coordinator.fanout",
    "service.coordinator.fanout_point",
    "service.coordinator.fanout_keyword",
    "service.coordinator.shard_failures",
    "service.coordinator.shard_timeouts",
    "shard.row_skew",
    "shard.bytes_over_single",
    "core.alltops.rows",
    "core.pruning.kept_ratio",
    "core.store.lefttops_rows",
    "core.store.topologies",
    "persist.bytes_per_alltops_row",
    "bench.trace_requests",
)


def as_wire(values: Dict[str, Any], catalogue: Dict[str, str]) -> Dict[str, Dict[str, Any]]:
    """``{name: {"value", "unit"}}`` for every catalogued name, 0 where
    the workload does not exercise the layer.  Refuses a name the
    catalogue does not list."""
    unknown = sorted(set(values) - set(catalogue))
    if unknown:
        raise KeyError(f"metrics missing from the catalogue: {unknown}")
    return {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit in catalogue.items()
    }
