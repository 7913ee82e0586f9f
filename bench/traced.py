"""The traced run of an online workload: per-layer metrics.

Two passes over the first N requests of the workload's list (N is a
fixed function of ``--seconds``, so every count repeats exactly):

1. a **counts pass** — the same system under test and closed loop as
   the end-to-end run, bounded by N instead of the clock.  Cache, plan,
   admission and shard counters are read from the public snapshots
   (``GET /stats``, ``server.stats()``, ``coordinator.stats()``) around
   it, and its client-side median is what tracing overhead is measured
   against;
2. a **depth ladder** — single-threaded in this process against an
   engine loaded from the same snapshot.  Each request enters the stack
   at successive depths, innermost first::

       d4  Method.plan, then Method.execute   (the two parts of d3)
       d3  TopologySearchSystem.search
       d2  TopologyServer.query
       d1  TestClient POST /query            (ASGI, no socket)
       d0  http.client POST /query           (socket, HttpServerThread)

   One span per call — name, start, end, parent, request index — is
   kept in memory and written to ``bench/out/trace-<workload>.json``
   when the run ends.  A layer's self time is the median over requests
   of *its* call minus the next-inner call *for the same request*;
   pairing within a request cancels the request-to-request spread, which
   is a hundred times larger than the thinnest layer.  Before each depth
   of a miss workload the result cache and the SQL engine's
   prepared-statement cache are dropped (``server.invalidate()``,
   ``Engine.clear_plan_cache()``): every depth is then a miss that
   parses its SQL, as a first-time request does.  Without the second,
   only the innermost depth would pay the parse — a quarter of the
   whole request on exhaustive queries.  On ``http_hot`` nothing is
   dropped and the ladder stops at d2, because a hit never goes deeper.

Spans are recorded here, around calls into public functions; consuming
the program's own spans is a later issue.
"""

from __future__ import annotations

import http.client
import json
import os
import time
from contextlib import ExitStack
from typing import Any, Dict, List, Optional, Sequence, Tuple

from bench import OUT
from bench.fixture import Fixture
from bench.measure import digest, latency_summary, mean, median, percentile, ratio
from bench.online import (
    check,
    closed_loop,
    counters_between,
    make_sut,
    served_mb,
)
from bench.oracle import Oracle
from bench.serve import HttpChild
from bench.workloads import DIRECT_METHODS, Request

WORK_KEYS = (
    ("rows_scanned", "rows_scanned_per_query"),
    ("index_probes", "index_probes_per_query"),
    ("rows_joined", "rows_joined_per_query"),
    ("subqueries_run", "subqueries_per_query"),
    ("groups_skipped", "groups_skipped_per_query"),
)
STRATEGIES = ("regular", "et-idgj", "et-hdgj")
_US = 1e6


class Spans:
    """In-memory span log; ``call`` times one call into a layer."""

    def __init__(self) -> None:
        self.records: List[Tuple[str, float, float, Optional[str], int]] = []

    def call(self, name: str, parent: Optional[str], index: int, fn: Any, *args: Any) -> Any:
        start = time.perf_counter()
        value = fn(*args)
        self.records.append((name, start, time.perf_counter(), parent, index))
        return value

    def durations(self, name: str) -> List[float]:
        """Per-request durations of one span name, in request order."""
        return [end - start for n, start, end, _, _ in self.records if n == name]

    def write(self, workload: str) -> str:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{workload}.json")
        keys = ("name", "start", "end", "parent", "request")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(keys, record)) for record in self.records], handle)
        return path


def _paired(outer: Sequence[float], *inner: Sequence[float]) -> float:
    """Median over requests of ``outer - sum(inner)``, in microseconds."""
    return median(o - sum(parts) for o, *parts in zip(outer, *inner)) * _US


def _us(values: Sequence[float]) -> float:
    return median(values) * _US


# ----------------------------------------------------------------------
# Ladders
# ----------------------------------------------------------------------
def _forget(system: Any, server: Any = None) -> None:
    """Make the next call a first-time request again."""
    if server is not None:
        server.invalidate()
    system.engine.clear_plan_cache()


def _engine_depths(spans: Spans, system: Any, index: int, request: Request, name: str) -> Any:
    """d4 then d3 for one request; returns the d3 result (its ``work``
    counters are the exact relational counts)."""
    method = system.method(name)
    _forget(system)
    plan = spans.call("d4.plan", "d3.search", index, method.plan, request.query)
    spans.call("d4.execute", "d3.search", index, method.execute, plan, request.query)
    _forget(system)
    return spans.call("d3.search", "d2.server", index, system.search, request.query, name)


def _work_metrics(results: Sequence[Any]) -> Dict[str, float]:
    out = {
        f"relational.{metric}": mean([r.work.get(key, 0) for r in results])
        for key, metric in WORK_KEYS
    }
    work = sum(
        r.work.get("rows_scanned", 0) + r.work.get("index_probes", 0) + r.work.get("rows_joined", 0)
        for r in results
    )
    out["relational.work_per_result"] = ratio(work, sum(len(r.tids) for r in results))
    return out


def _wire_costs(spans: Spans, index: int, request: Request, result: Any) -> int:
    """Time the schema layer's two halves from outside, the way the app
    calls them; returns the encoded reply's size."""
    from repro.service.http.schemas import parse_query_request, result_to_wire

    def parse() -> None:
        parse_query_request(json.loads(request.body))

    def encode() -> bytes:
        wire = result_to_wire(result)
        wire["trace_id"] = None
        return json.dumps(wire, sort_keys=True).encode("utf-8")

    spans.call("schemas.parse", "d1.asgi", index, parse)
    return len(spans.call("schemas.encode", "d1.asgi", index, encode))


def http_ladder(
    fixture: Fixture, requests: Sequence[Request], warmup: Sequence[Request], hot: bool
) -> Tuple[Spans, Dict[str, float]]:
    from repro.persist import load_system
    from repro.service import TopologyServer
    from repro.service.http import HttpServerThread, TestClient, create_app

    spans = Spans()
    results: List[Any] = []
    encoded: List[int] = []
    with ExitStack() as stack:
        system = load_system(fixture.snapshot)
        server = stack.enter_context(TopologyServer(system))
        app = stack.enter_context(create_app(server))
        base_url = stack.enter_context(HttpServerThread(app))
        client = stack.enter_context(TestClient(app))
        host, port = base_url.split("//", 1)[1].rsplit(":", 1)
        connection = http.client.HTTPConnection(host, int(port), timeout=60.0)
        stack.callback(connection.close)

        def over_socket(body: bytes) -> bytes:
            connection.request(
                "POST", "/query", body=body, headers={"Content-Type": "application/json"}
            )
            return connection.getresponse().read()

        for request in warmup:
            over_socket(request.body)
        for index, request in enumerate(requests):
            name = request.method or server.default_method
            if not hot:
                results.append(_engine_depths(spans, system, index, request, name))
                _forget(system, server)
            result = spans.call(
                "d2.server", "d1.asgi", index, server.query, request.query, request.method
            )
            encoded.append(_wire_costs(spans, index, request, result))
            if not hot:
                _forget(system, server)
            spans.call("d1.asgi", "d0.socket", index, client.request, "POST", "/query", None, request.body)
            if not hot:
                _forget(system, server)
            spans.call("d0.socket", None, index, over_socket, request.body)

    d0, d1, d2 = (spans.durations(n) for n in ("d0.socket", "d1.asgi", "d2.server"))
    parse, encode = spans.durations("schemas.parse"), spans.durations("schemas.encode")
    layers = {
        "bench.trace_d0_us": _us(d0),
        "http.netserver.self_us": _paired(d0, d1),
        "http.app.self_us": _paired(d1, d2, parse, encode),
        "http.schemas.parse_us": _us(parse),
        "http.schemas.encode_us": _us(encode),
        "http.schemas.encode_bytes": mean(encoded),
    }
    if hot:
        layers["service.server.hit_us"] = _us(d2)
    else:
        layers.update(_engine_layers(spans, d2))
        layers.update(_work_metrics(results))
    return spans, layers


def _engine_layers(spans: Spans, d2: Sequence[float]) -> Dict[str, float]:
    d3 = spans.durations("d3.search")
    plan, execute = spans.durations("d4.plan"), spans.durations("d4.execute")
    return {
        "service.server.miss_overhead_us": _paired(d2, d3),
        "core.engine.search_us": _us(d3),
        "core.plan.plan_us": _us(plan),
        "core.methods.execute_us": _us(execute),
        "core.methods.execute_p95_us": percentile(sorted(execute), 95) * _US,
    }


def direct_ladder(
    fixture: Fixture, requests: Sequence[Request], warmup: Sequence[Request]
) -> Tuple[Spans, Dict[str, float]]:
    from repro.persist import load_system
    from repro.service import TopologyServer

    spans = Spans()
    results: List[Any] = []
    system = load_system(fixture.snapshot)
    with TopologyServer(system) as server:
        for request in warmup:
            server.query(request.query, request.method)
        for index, request in enumerate(requests):
            name = request.method or server.default_method
            results.append(_engine_depths(spans, system, index, request, name))
            _forget(system, server)
            spans.call("d2.server", None, index, server.query, request.query, request.method)
    d2 = spans.durations("d2.server")
    layers = {"bench.trace_d0_us": _us(d2)}
    layers.update(_engine_layers(spans, d2))
    layers.update(_work_metrics(results))
    execute = spans.durations("d4.execute")
    for method in DIRECT_METHODS:
        own = [t for t, r in zip(execute, requests) if r.method == method]
        layers[f"core.methods.execute_us.{method}"] = _us(own)
    return spans, layers


def shard_ladder(
    fixture: Fixture, requests: Sequence[Request], warmup: Sequence[Request]
) -> Tuple[Spans, Dict[str, float]]:
    """Scatter through a real coordinator, then the same query on each
    shard's engine loaded here: the slowest shard sets the reply time,
    the sum is the CPU paid, and what is left of the scatter is IPC,
    pickle and merge."""
    from repro.persist import load_system
    from repro.service import ShardCoordinator

    spans = Spans()
    engines = [load_system(path) for path in fixture.shard_paths]
    fanout: Dict[str, List[int]] = {"point": [], "keyword": []}
    with ShardCoordinator(fixture.manifest) as coordinator:

        def shard_calls() -> int:
            return sum(shard["calls"] for shard in coordinator.stats().shards)

        for request in warmup:
            coordinator.query(request.query, request.method)
        for index, request in enumerate(requests):
            name = request.method or coordinator.default_method
            before = shard_calls()
            spans.call(
                "coordinator.scatter", None, index, coordinator.query, request.query, request.method
            )
            fanout[request.kind].append(shard_calls() - before)
            for shard, engine in enumerate(engines):
                spans.call(
                    f"shard.engine.{shard}", "coordinator.scatter", index,
                    engine.search, request.query, name,
                )
    scatter = spans.durations("coordinator.scatter")
    per_shard = [spans.durations(f"shard.engine.{s}") for s in range(len(engines))]
    slowest = [max(times) for times in zip(*per_shard)]
    every = fanout["point"] + fanout["keyword"]
    layers = {
        "bench.trace_d0_us": _us(scatter),
        "service.coordinator.scatter_us": _us(scatter),
        "shard.engine_max_us": _us(slowest),
        "shard.engine_sum_us": _us([sum(times) for times in zip(*per_shard)]),
        "service.coordinator.overhead_us": _paired(scatter, slowest),
        "service.coordinator.fanout": mean(every),
        "service.coordinator.fanout_point": mean(fanout["point"]),
        "service.coordinator.fanout_keyword": mean(fanout["keyword"]),
    }
    return spans, layers


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def _single_engine_rss_mb(fixture: Fixture) -> float:
    """Peak memory of a server process holding the unsharded store."""
    with HttpChild(fixture.snapshot, "rss-probe") as child:
        pass
    return child.peak_rss_mb


def run_traced(
    workload: str,
    fixture: Fixture,
    requests: Sequence[Request],
    warmup: Sequence[Request],
) -> Dict[str, Any]:
    # Counts pass: the real SUT, bounded by the list, not the clock.
    sut = make_sut(workload, fixture)
    try:
        sut.start(warmup)
        before = sut.counters()
        samples, _ = closed_loop(sut.callers(), requests, None)
        counters = counters_between(before, sut.counters())
        extras = sut.stop()
    finally:
        sut.close()
    checked = check(sut, Oracle.from_snapshot(fixture.snapshot), requests, samples)
    untraced_p50_us = latency_summary([s.seconds for s in samples])["p50_ms"] * 1e3

    if workload.startswith("http_"):
        spans, layers = http_ladder(fixture, requests, warmup, hot=workload == "http_hot")
        layers["http.admission.admitted"] = counters["admitted"]
        layers["http.admission.rejected"] = counters["rejected"]
    elif workload == "direct_exhaustive":
        spans, layers = direct_ladder(fixture, requests, warmup)
    else:
        spans, layers = shard_ladder(fixture, requests, warmup)
        layers["service.coordinator.shard_failures"] = counters["shard_failures"]
        layers["service.coordinator.shard_timeouts"] = counters["shard_timeouts"]
        layers["shard.row_skew"] = extras["row_skew"]
        layers["shard.bytes_over_single"] = ratio(
            served_mb(workload, fixture), fixture.info["snapshot_bytes"] / 1e6
        )
        layers["shard.rss_over_single"] = ratio(
            max(extras["worker_rss_mb"]), _single_engine_rss_mb(fixture)
        )
    trace_file = spans.write(workload)

    replies = checked.attempted - checked.failed
    layers["service.cache.hit_ratio"] = ratio(counters["cache_hits"], counters["requests"])
    layers["service.cache.evictions"] = counters["evictions"]
    layers["service.server.coalesced"] = counters["coalesced"]
    layers["core.plan.cache_hit_ratio"] = ratio(
        counters["plan_hits"], counters["plan_hits"] + counters["plan_misses"]
    )
    if workload != "http_hot":  # a hit reports the plan of the execution it reuses
        for strategy in STRATEGIES:
            layers[f"core.plan.strategy_share.{strategy}"] = ratio(
                checked.strategies.get(strategy, 0), replies
            )
    layers["bench.trace_overhead_ratio"] = ratio(layers["bench.trace_d0_us"], untraced_p50_us)
    layers["bench.trace_requests"] = len(requests)
    return {
        "attempted": checked.attempted,
        "failed": checked.failed,
        "layers": layers,
        "info": {
            "answers_digest": digest((s.index, s.raw) for s in checked.correct),
            "trace_file": os.path.relpath(trace_file, os.path.dirname(OUT)),
            "untraced_p50_us": untraced_p50_us,
        },
    }
