"""Build the ``GET /metrics`` exposition from ONE stats snapshot.

The scattered counters this system already keeps — result-cache and
plan-cache hit rates, calibrator state, admission gate, per-shard
routing and failure-domain counters, latency histograms, tracer ring
occupancy — are folded into Prometheus *families* behind stable dotted
names (``repro.cache.hits`` → ``repro_cache_hits``).  Everything is
derived from a single ``server.stats()`` snapshot plus one read of each
independent component, the same torn-read discipline ``/stats`` follows:
a scrape must never show ``hits + misses != requests`` because the two
numbers came from different instants.

Against a :class:`~repro.service.coordinator.ShardCoordinator` the
scrape also merges the shard workers' own observability sections
(plan-cache counters, calibrator version, generation) labeled by shard
index, with ``repro_shard_up`` marking workers that answered — a dead
shard flips its gauge to 0 instead of failing the scrape.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs import LATENCY_BUCKETS
from repro.obs.metrics import Sample, _format_value

__all__ = ["metrics_families"]

Family = Tuple[str, str, str, List[Sample]]


def _single(name: str, kind: str, help_text: str, value: float) -> Family:
    return (name, kind, help_text, [(name, {}, float(value))])


def _labeled(
    name: str, kind: str, help_text: str, samples: List[Tuple[Dict[str, str], float]]
) -> Family:
    return (name, kind, help_text, [(name, labels, float(v)) for labels, v in samples])


def _latency_family(latency: Dict[str, Dict[str, Any]]) -> Family:
    """Per-method engine-latency histogram from the count-preserving
    buckets ``LatencyStats.snapshot()`` carries (cumulative ``le``
    series + ``_sum`` + ``_count``, Prometheus-style)."""
    name = "repro.query.latency_seconds"
    samples: List[Sample] = []
    for method, snap in sorted(latency.items()):
        buckets = snap.get("buckets") or {}
        bounds = buckets.get("le") or list(LATENCY_BUCKETS)
        counts = buckets.get("counts") or [0] * (len(bounds) + 1)
        running = 0
        for bound, count in zip(bounds, counts):
            running += count
            samples.append(
                (
                    name + "_bucket",
                    {"method": method, "le": _format_value(float(bound))},
                    float(running),
                )
            )
        running += counts[-1] if len(counts) > len(bounds) else 0
        samples.append((name + "_bucket", {"method": method, "le": "+Inf"}, float(running)))
        samples.append((name + "_sum", {"method": method}, float(snap.get("total_seconds", 0.0))))
        samples.append((name + "_count", {"method": method}, float(snap.get("count", 0))))
    if not samples:
        return (name, "histogram", "Engine execution latency by method.", [])
    return (name, "histogram", "Engine execution latency by method.", samples)


def _shard_families(stats: Any, server: Any) -> List[Family]:
    """What only a ShardCoordinator reports: uptime, per-shard
    routing/health gauges, and the merged worker-side observability
    sections (best-effort: a dead worker is ``up 0``)."""
    shards = stats.shards
    if shards is None:
        return []
    families: List[Family] = [
        _single("repro.server.uptime_seconds", "gauge", "Seconds serving.", stats.uptime_seconds),
        _single(
            "repro.server.started_generation",
            "gauge",
            "Generation this process started on.",
            stats.started_generation,
        ),
    ]
    routed: List[Tuple[Dict[str, str], float]] = []
    calls: List[Tuple[Dict[str, str], float]] = []
    failures: List[Tuple[Dict[str, str], float]] = []
    timeouts: List[Tuple[Dict[str, str], float]] = []
    for section in shards:
        label = {"shard": str(section.get("index"))}
        routed.append((label, section.get("routed_rows", 0)))
        calls.append((label, section.get("calls", 0)))
        failures.append((label, section.get("failures", 0)))
        timeouts.append((label, section.get("timeouts", 0)))
    families.append(
        _labeled("repro.shard.routed_rows", "gauge", "Rows routed to each shard.", routed)
    )
    families.append(_labeled("repro.shard.calls", "counter", "Scatter calls per shard.", calls))
    families.append(
        _labeled("repro.shard.failures", "counter", "Failed scatter calls per shard.", failures)
    )
    families.append(
        _labeled(
            "repro.shard.timeouts", "counter", "Timed-out scatter calls per shard.", timeouts
        )
    )
    families.append(
        _single(
            "repro.shard.skew",
            "gauge",
            "Routing skew (max/mean routed rows; 1.0 = balanced).",
            server.partition_skew(),
        )
    )
    up: List[Tuple[Dict[str, str], float]] = []
    generation: List[Tuple[Dict[str, str], float]] = []
    plan_cache: Dict[str, List[Tuple[Dict[str, str], float]]] = {
        "hits": [],
        "misses": [],
        "invalidations": [],
        "size": [],
    }
    calibrator_version: List[Tuple[Dict[str, str], float]] = []
    for section in server.shard_obs_sections():
        label = {"shard": str(section.get("index"))}
        alive = bool(section.get("up"))
        up.append((label, 1.0 if alive else 0.0))
        if not alive:
            continue
        generation.append((label, section.get("generation", 0)))
        pc = section.get("plan_cache") or {}
        for key in plan_cache:
            plan_cache[key].append((label, pc.get(key, 0)))
        cal = section.get("calibrator") or {}
        calibrator_version.append((label, cal.get("version", 0)))
    families.append(
        _labeled("repro.shard.up", "gauge", "1 if the shard worker answered the scrape.", up)
    )
    if generation:
        families.append(
            _labeled(
                "repro.shard.generation", "gauge", "Serving generation per worker.", generation
            )
        )
    for key, kind in (
        ("hits", "counter"),
        ("misses", "counter"),
        ("invalidations", "counter"),
        ("size", "gauge"),
    ):
        if plan_cache[key]:
            families.append(
                _labeled(
                    f"repro.shard.plan_cache.{key}",
                    kind,
                    f"Worker-side plan cache {key} per shard.",
                    plan_cache[key],
                )
            )
    if calibrator_version:
        families.append(
            _labeled(
                "repro.shard.calibrator.version",
                "gauge",
                "Worker-side cost calibrator version per shard.",
                calibrator_version,
            )
        )
    return families


def metrics_families(
    server: Any,
    http_section: Dict[str, Any],
    gate_stats: Dict[str, int],
    tracer_stats: Dict[str, Any],
) -> List[Family]:
    """Every `/metrics` family, from one ``server.stats()`` snapshot."""
    stats = server.stats()
    latency = server.latency_stats()
    families: List[Family] = [
        _single("repro.server.generation", "gauge", "Serving generation.", stats.generation),
        _single("repro.server.requests", "counter", "Query requests served.", stats.requests),
        _single(
            "repro.server.executions", "counter", "Engine executions dispatched.", stats.executions
        ),
        _single(
            "repro.server.coalesced",
            "counter",
            "Requests coalesced onto an in-flight execution.",
            stats.coalesced,
        ),
        _single("repro.server.failures", "counter", "Failed executions.", stats.failures),
        _single("repro.server.rebuilds", "counter", "Committed rebuilds.", stats.rebuilds),
        _single("repro.server.restores", "counter", "Snapshot restores.", stats.restores),
        _single("repro.server.in_flight", "gauge", "Executions in flight.", stats.in_flight),
        _single("repro.cache.hits", "counter", "Result cache hits.", stats.result_cache.hits),
        _single("repro.cache.misses", "counter", "Result cache misses.", stats.result_cache.misses),
        _single("repro.cache.size", "gauge", "Result cache entries.", stats.result_cache.size),
        _single(
            "repro.cache.capacity", "gauge", "Result cache capacity.", stats.result_cache.capacity
        ),
        _single("repro.plan_cache.hits", "counter", "Plan cache hits.", stats.plan_cache.hits),
        _single(
            "repro.plan_cache.misses", "counter", "Plan cache misses.", stats.plan_cache.misses
        ),
        _single(
            "repro.plan_cache.invalidations",
            "counter",
            "Plan cache invalidations (rebuild/calibration).",
            stats.plan_cache.invalidations,
        ),
        _single("repro.plan_cache.size", "gauge", "Plan cache entries.", stats.plan_cache.size),
        _single(
            "repro.plan_cache.capacity", "gauge", "Plan cache capacity.", stats.plan_cache.capacity
        ),
        _latency_family(latency),
    ]
    if stats.shards is None:  # behind a coordinator, calibration lives shard-side
        snap = server.calibration_stats()
        families.append(
            _single(
                "repro.calibrator.version",
                "gauge",
                "Cost calibrator version (bumps on refit).",
                snap.get("version", 0),
            )
        )
        strategies = snap.get("strategies") or {}
        if strategies:
            families.append(
                _labeled(
                    "repro.calibrator.observations",
                    "counter",
                    "Calibration observations per strategy.",
                    [
                        ({"strategy": name}, fit.get("count", 0))
                        for name, fit in sorted(strategies.items())
                    ],
                )
            )
            families.append(
                _labeled(
                    "repro.calibrator.factor",
                    "gauge",
                    "Learned cost factor per strategy.",
                    [
                        ({"strategy": name}, fit.get("factor", 1.0))
                        for name, fit in sorted(strategies.items())
                    ],
                )
            )
    families.extend(_shard_families(stats, server))
    families.append(
        _single(
            "repro.http.requests",
            "counter",
            "HTTP requests received.",
            http_section.get("requests_total", 0),
        )
    )
    families.append(
        _labeled(
            "repro.http.responses",
            "counter",
            "HTTP responses by status class.",
            [
                ({"class": cls}, count)
                for cls, count in sorted(
                    (http_section.get("responses_by_class") or {}).items()
                )
            ],
        )
    )
    for key, kind, help_text in (
        ("active", "gauge", "Requests holding an admission slot."),
        ("waiting", "gauge", "Requests queued at the admission gate."),
        ("max_concurrency", "gauge", "Admission concurrency limit."),
        ("max_queue", "gauge", "Admission queue limit."),
        ("admitted", "counter", "Requests admitted."),
        ("rejected_queue_full", "counter", "Requests shed: queue full."),
        ("rejected_timeout", "counter", "Requests shed: queue timeout."),
    ):
        families.append(
            _single(f"repro.http.admission.{key}", kind, help_text, gate_stats.get(key, 0))
        )
    families.append(
        _single(
            "repro.trace.enabled",
            "gauge",
            "1 if tracing is enabled in this process.",
            1.0 if tracer_stats.get("enabled") else 0.0,
        )
    )
    families.append(
        _single(
            "repro.trace.buffered_traces",
            "gauge",
            "Traces held in the ring buffer.",
            tracer_stats.get("traces", 0),
        )
    )
    families.append(
        _single(
            "repro.trace.spans_recorded",
            "counter",
            "Spans recorded since start.",
            tracer_stats.get("spans_recorded", 0),
        )
    )
    families.append(
        _single(
            "repro.trace.spans_dropped",
            "counter",
            "Spans dropped (per-trace cap).",
            tracer_stats.get("spans_dropped", 0),
        )
    )
    return families
