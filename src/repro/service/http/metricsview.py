"""``GET /metrics`` as a table over the payload ``GET /stats`` serves.

Every exported family is one row of :data:`METRIC_TABLE`: a stable
dotted name (``repro.cache.hits`` → ``repro_cache_hits``), its kind and
help text, and the *path* of its value in the payload
:meth:`TopologyHttpApp._scrape_payload
<repro.service.http.app.TopologyHttpApp>` builds — the ``/stats`` body
plus the calibrator, tracer and (behind a
:class:`~repro.service.coordinator.ShardCoordinator`) per-shard worker
sections.  Nothing here reads a live component, so a scrape shows the
numbers of one ``ServingStats`` snapshot and can never report
``hits + misses != requests``.

A path is ``/``-separated keys.  One ``*`` fans out over the dict or
list it lands on — one sample per element, labeled (the row's fifth
field names the label) with the dict key or the list element's
``index`` — and the rest of the path is followed inside each element.
An element the rest does not resolve in yields no sample, which is how
a dead shard worker (its section is ``{"index", "up": False}``) shows
as ``repro_shard_up{shard="N"} 0`` and nothing else.  A row whose path
resolves nowhere is not rendered: a coordinator has no ``calibrator``
section, a plain server no ``shards``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import Family, Sample, histogram_samples

__all__ = ["METRIC_TABLE", "metrics_families"]

#: ``(dotted name, kind, help, path[, label])``, one family per row, in
#: exposition order.  relint R8 reads this table: every row leads with a
#: dotted-lowercase string literal.
# fmt: off
METRIC_TABLE: Tuple[Tuple[str, ...], ...] = (
    ("repro.server.generation", "gauge", "Serving generation.", "generation"),
    ("repro.server.requests", "counter", "Query requests served.", "requests"),
    ("repro.server.executions", "counter", "Engine executions dispatched.", "executions"),
    ("repro.server.coalesced", "counter", "Requests coalesced onto an in-flight execution.", "coalesced"),
    ("repro.server.failures", "counter", "Failed executions.", "failures"),
    ("repro.server.rebuilds", "counter", "Committed rebuilds.", "rebuilds"),
    ("repro.server.restores", "counter", "Snapshot restores.", "restores"),
    ("repro.server.in_flight", "gauge", "Executions in flight.", "in_flight"),
    ("repro.cache.hits", "counter", "Result cache hits.", "result_cache/hits"),
    ("repro.cache.misses", "counter", "Result cache misses.", "result_cache/misses"),
    ("repro.cache.size", "gauge", "Result cache entries.", "result_cache/size"),
    ("repro.cache.capacity", "gauge", "Result cache capacity.", "result_cache/capacity"),
    ("repro.plan_cache.hits", "counter", "Plan cache hits.", "plan_cache/hits"),
    ("repro.plan_cache.misses", "counter", "Plan cache misses.", "plan_cache/misses"),
    ("repro.plan_cache.invalidations", "counter", "Plan cache invalidations (rebuild/calibration).", "plan_cache/invalidations"),
    ("repro.plan_cache.size", "gauge", "Plan cache entries.", "plan_cache/size"),
    ("repro.plan_cache.capacity", "gauge", "Plan cache capacity.", "plan_cache/capacity"),
    # The SQL engine's statement cache, under the plan layer.
    ("repro.statement_cache.hits", "counter", "SQL statement cache hits (a prepared plan served).", "statement_cache/hits"),
    ("repro.statement_cache.misses", "counter", "SQL statement cache misses (the optimizer ran).", "statement_cache/misses"),
    ("repro.statement_cache.texts", "gauge", "SQL statement texts held, parsed and bound.", "statement_cache/texts"),
    ("repro.statement_cache.classes", "gauge", "Prepared plans held, one per statement text and selectivity class.", "statement_cache/classes"),
    ("repro.statement_cache.size", "gauge", "Entries each statement cache level holds at most.", "statement_cache/size"),
    ("repro.query.latency_seconds", "histogram", "Engine execution latency by method.", "latency/*", "method"),
    # Plain server only: behind a coordinator, calibration lives shard-side.
    ("repro.calibrator.version", "gauge", "Cost calibrator version (bumps on refit).", "calibrator/version"),
    ("repro.calibrator.observations", "counter", "Calibration observations per strategy.", "calibrator/strategies/*/count", "strategy"),
    ("repro.calibrator.factor", "gauge", "Learned cost factor per strategy.", "calibrator/strategies/*/factor", "strategy"),
    # Coordinator only: process age, the coordinator's own view of each shard
    # (`shards`), then what each shard worker reported about itself (`shard_obs`).
    ("repro.server.uptime_seconds", "gauge", "Seconds serving.", "uptime_seconds"),
    ("repro.server.started_generation", "gauge", "Generation this process started on.", "started_generation"),
    ("repro.shard.routed_rows", "gauge", "Rows routed to each shard.", "shards/*/routed_rows", "shard"),
    ("repro.shard.calls", "counter", "Scatter calls per shard.", "shards/*/calls", "shard"),
    ("repro.shard.failures", "counter", "Failed scatter calls per shard.", "shards/*/failures", "shard"),
    ("repro.shard.timeouts", "counter", "Timed-out scatter calls per shard.", "shards/*/timeouts", "shard"),
    ("repro.shard.skew", "gauge", "Routing skew (max/mean routed rows; 1.0 = balanced).", "sharding/skew"),
    ("repro.shard.up", "gauge", "1 if the shard worker answered the scrape.", "shard_obs/*/up", "shard"),
    ("repro.shard.generation", "gauge", "Serving generation per worker.", "shard_obs/*/generation", "shard"),
    ("repro.shard.plan_cache.hits", "counter", "Worker-side plan cache hits per shard.", "shard_obs/*/plan_cache/hits", "shard"),
    ("repro.shard.plan_cache.misses", "counter", "Worker-side plan cache misses per shard.", "shard_obs/*/plan_cache/misses", "shard"),
    ("repro.shard.plan_cache.invalidations", "counter", "Worker-side plan cache invalidations per shard.", "shard_obs/*/plan_cache/invalidations", "shard"),
    ("repro.shard.plan_cache.size", "gauge", "Worker-side plan cache size per shard.", "shard_obs/*/plan_cache/size", "shard"),
    ("repro.shard.statement_cache.hits", "counter", "Worker-side SQL statement cache hits per shard.", "shard_obs/*/statement_cache/hits", "shard"),
    ("repro.shard.statement_cache.misses", "counter", "Worker-side SQL statement cache misses per shard.", "shard_obs/*/statement_cache/misses", "shard"),
    ("repro.shard.statement_cache.texts", "gauge", "Worker-side SQL statement texts held per shard.", "shard_obs/*/statement_cache/texts", "shard"),
    ("repro.shard.statement_cache.classes", "gauge", "Worker-side prepared plans held per shard.", "shard_obs/*/statement_cache/classes", "shard"),
    ("repro.shard.calibrator.version", "gauge", "Worker-side cost calibrator version per shard.", "shard_obs/*/calibrator/version", "shard"),
    # The workers' event counter.  (This process's, if it runs an engine too,
    # comes from the registry and renders in the same family.)
    ("repro.engine.pruned_checks", "counter", "Online checks of pruned topologies, by outcome.", "shard_obs/*/counters/repro.engine.pruned_checks", "shard"),
    # The HTTP layer and the tracer of this process.
    ("repro.http.requests", "counter", "HTTP requests received.", "http/requests_total"),
    ("repro.http.responses", "counter", "HTTP responses by status class.", "http/responses_by_class/*", "class"),
    ("repro.http.admission.active", "gauge", "Requests holding an admission slot.", "http/admission/active"),
    ("repro.http.admission.waiting", "gauge", "Requests queued at the admission gate.", "http/admission/waiting"),
    ("repro.http.admission.max_concurrency", "gauge", "Admission concurrency limit.", "http/admission/max_concurrency"),
    ("repro.http.admission.max_queue", "gauge", "Admission queue limit.", "http/admission/max_queue"),
    ("repro.http.admission.admitted", "counter", "Requests admitted.", "http/admission/admitted"),
    ("repro.http.admission.rejected_queue_full", "counter", "Requests shed: queue full.", "http/admission/rejected_queue_full"),
    ("repro.http.admission.rejected_timeout", "counter", "Requests shed: queue timeout.", "http/admission/rejected_timeout"),
    ("repro.trace.enabled", "gauge", "1 if tracing is enabled in this process.", "tracer/enabled"),
    ("repro.trace.buffered_traces", "gauge", "Traces held in the ring buffer.", "tracer/traces"),
    ("repro.trace.spans_recorded", "counter", "Spans recorded since start.", "tracer/spans_recorded"),
    ("repro.trace.spans_dropped", "counter", "Spans dropped (per-trace cap).", "tracer/spans_dropped"),
)
# fmt: on


def _at(node: Any, path: str) -> Any:
    """The value ``path`` leads to under ``node``, or ``None``."""
    for key in filter(None, path.split("/")):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def _scalar(name: str, labels: Dict[str, str], leaf: Any) -> List[Sample]:
    """A number is one sample.  A list is registry samples shipped from
    another process, ``(labels, value)`` each, which keep their labels."""
    if isinstance(leaf, list):
        return [(name, {**labels, **own}, float(value)) for own, value in leaf]
    return [(name, labels, float(leaf))]


def _histogram(name: str, labels: Dict[str, str], leaf: Any) -> List[Sample]:
    """A ``LatencyStats.snapshot()`` is one cumulative-bucket series."""
    buckets = leaf["buckets"]
    return histogram_samples(name, labels, buckets["le"], buckets["counts"], leaf["total_seconds"])


def _samples(
    payload: Dict[str, Any], name: str, kind: str, path: str, label: str = ""
) -> Optional[List[Sample]]:
    """The row's samples, or ``None`` when the payload has no such
    family.  Where the path ends at the ``*`` the container's entries
    *are* the series, and an empty one is a family with no series yet
    (header only).  Where a value is picked out of each element, a
    family needs one element that has it: no calibrated strategy yet,
    or every worker down, is no family at all."""
    render = _histogram if kind == "histogram" else _scalar
    head, star, rest = path.partition("*")
    node = _at(payload, head)
    if node is None:
        return None
    if not star:
        return render(name, {}, node)
    elements = sorted(node.items()) if isinstance(node, dict) else [(e["index"], e) for e in node]
    samples: List[Sample] = []
    for key, element in elements:
        leaf = _at(element, rest)
        if leaf is not None:
            samples.extend(render(name, {label: str(key)}, leaf))
    return samples if samples or not rest else None


def metrics_families(payload: Dict[str, Any]) -> List[Family]:
    """Every `/metrics` family the payload has a value for, in table
    order."""
    families: List[Family] = []
    for name, kind, help_text, *where in METRIC_TABLE:
        samples = _samples(payload, name, kind, *where)
        if samples is not None:
            families.append((name, kind, help_text, samples))
    return families
