"""Observability overhead benchmark: what tracing + metrics cost.

The observability layer is only free if nobody pays for it on the hot
path, so this harness drives a closed-loop socket workload with
tracing enabled (the default) and disabled and pins the closed-loop
throughput regression at ≤5%.

Measurement protocol — this box is a single, slow core (see the
benchmark notes), and its speed drifts by ±10-15% on the timescale of a
benchmark round, so mode A and mode B must never be separated in time:

* Requests run in **adjacent pairs**: the same query traced then
  untraced, back to back, with the within-pair order alternating every
  pair (ABBA) so any first-run penalty hits both modes equally.  Drift
  slower than a couple of milliseconds cancels inside each pair.
* The workload is **cache-mixed like production**: six repeating
  queries (result-cache hits, the worst case for fixed per-request
  overhead) plus every 8th pair a cache-busting unique-keyword query
  that runs the engine.  Both sides of a busting pair use distinct
  keywords so both actually execute.
* The worst 5% of pairs by |delta| are **trimmed symmetrically**: a
  scheduler stall lands on one side of one pair and would otherwise
  swing the total by more than the effect being measured.
* Overhead = Σdelta / Σuntraced over the kept pairs — exactly the
  closed-loop throughput regression, weighted by where the time goes.

The ceiling is *enforced* at non-tiny scale; at tiny scale the engine
work is so small that per-request jitter swamps the signal, so the
number is report-only.  A concurrent 4-client round per mode and the
``GET /metrics`` scrape cost are also reported (never enforced:
multi-client walls on one core carry scheduler noise well above 5%).

Machine-readable results land in ``BENCH_observability.json`` at the
repo root.
"""

from __future__ import annotations

import http.client
import itertools
import json
import threading
import time
from typing import Dict, List, Tuple

from repro.analysis import render_table
from repro.obs import tracer as obs_tracer
from repro.service import TopologyServer
from repro.service.http import HttpServerThread, create_app

from benchmarks.common import bench_scale, emit, emit_json, private_system

PAIRS = 320
MISS_EVERY = 8  # every 8th pair busts the result cache
TRIM_FRACTION = 0.05
OVERHEAD_CEILING = 0.05
CONCURRENT_CLIENTS = 4
CONCURRENT_REQUESTS_PER_CLIENT = 40
SCRAPES = 20

KEYWORDS = ["kinase", "binding", "human", "receptor", "membrane", "conserved"]
WORKLOAD = [
    {
        "entity1": "Protein",
        "entity2": "DNA",
        "constraint1": {"kind": "keyword", "column": "DESC", "keyword": keyword},
        "constraint2": {"kind": "none"},
        "k": 2 + i % 4,
        "ranking": ("freq", "rare")[i % 2],
    }
    for i, keyword in enumerate(KEYWORDS)
]

_uncached = itertools.count()


def _connect(base_url: str) -> http.client.HTTPConnection:
    """One keep-alive connection."""
    return http.client.HTTPConnection(base_url.split("//", 1)[1], timeout=60.0)


def _post(conn: http.client.HTTPConnection, payload: dict) -> Tuple[int, float]:
    """``POST /query``; the status and the wall time to the last byte."""
    body = json.dumps(payload).encode()
    start = time.perf_counter()
    conn.request("POST", "/query", body=body, headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    response.read()
    return response.status, time.perf_counter() - start


def _fresh_server() -> TopologyServer:
    server = TopologyServer(private_system())
    server.system.calibration_enabled = False  # pin plan choices
    server.system.restore_calibration(None)
    return server


def _busting_body() -> dict:
    """A query no cache has seen: unique keyword, so the engine runs."""
    body = dict(WORKLOAD[0])
    body["constraint1"] = {
        "kind": "keyword",
        "column": "DESC",
        "keyword": f"uncached{next(_uncached)}",
    }
    return body


def _paired_overhead(base_url: str) -> Dict[str, float]:
    """Run the paired traced/untraced loop; see the module docstring."""
    client = _connect(base_url)
    tracer = obs_tracer()
    try:
        def post(body: dict) -> float:
            status, seconds = _post(client, body)
            assert status == 200
            return seconds

        for i in range(50):  # warm: caches, code paths
            post(WORKLOAD[i % len(WORKLOAD)])

        deltas: List[float] = []
        untraced: List[float] = []
        try:
            for i in range(PAIRS):
                busting = i % MISS_EVERY == MISS_EVERY - 1

                def timed(mode: bool) -> float:
                    tracer.enabled = mode
                    return post(_busting_body() if busting else WORKLOAD[i % 6])

                if i % 2 == 0:  # ABBA within pairs
                    on, off = timed(True), timed(False)
                else:
                    off, on = timed(False), timed(True)
                deltas.append(on - off)
                untraced.append(off)
        finally:
            tracer.enabled = True
    finally:
        client.close()

    kept = sorted(range(PAIRS), key=lambda j: abs(deltas[j]))
    kept = kept[: PAIRS - int(PAIRS * TRIM_FRACTION)]
    sum_delta = sum(deltas[j] for j in kept)
    sum_off = sum(untraced[j] for j in kept)
    return {
        "pairs": PAIRS,
        "pairs_kept": len(kept),
        "sum_untraced_seconds": sum_off,
        "sum_delta_seconds": sum_delta,
        "overhead_fraction": sum_delta / sum_off,
        "traced_rps": len(kept) / (sum_off + sum_delta),
        "untraced_rps": len(kept) / sum_off,
    }


def _concurrent_wall(base_url: str) -> float:
    """One multi-client closed-loop round; all-200 enforced."""
    statuses: List[int] = []
    lock = threading.Lock()
    barrier = threading.Barrier(CONCURRENT_CLIENTS + 1)

    def client_thread(offset: int) -> None:
        client = _connect(base_url)
        try:
            barrier.wait()
            local = []
            for i in range(CONCURRENT_REQUESTS_PER_CLIENT):
                local.append(_post(client, WORKLOAD[(offset + i) % len(WORKLOAD)])[0])
            with lock:
                statuses.extend(local)
        finally:
            client.close()

    threads = [
        threading.Thread(target=client_thread, args=(n,))
        for n in range(CONCURRENT_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    assert statuses == [200] * (CONCURRENT_CLIENTS * CONCURRENT_REQUESTS_PER_CLIENT)
    return wall


def test_tracing_overhead_closed_loop():
    """Traced vs untraced closed loop, ≤5% enforced at non-tiny scale."""
    concurrent: Dict[str, float] = {}
    with _fresh_server() as server:
        with create_app(server, max_concurrency=CONCURRENT_CLIENTS + 2) as app:
            with HttpServerThread(app) as base_url:
                result = _paired_overhead(base_url)
                try:
                    for mode in (True, False):
                        obs_tracer().enabled = mode
                        concurrent["on" if mode else "off"] = _concurrent_wall(
                            base_url
                        )
                finally:
                    obs_tracer().enabled = True

    overhead = result["overhead_fraction"]
    enforced = bench_scale() != "tiny"
    concurrent_total = CONCURRENT_CLIENTS * CONCURRENT_REQUESTS_PER_CLIENT

    emit(
        "observability_overhead",
        render_table(
            ["metric", "value"],
            [
                ["request pairs (traced/untraced, adjacent)", str(PAIRS)],
                ["pairs kept after 5% stall trim", str(result["pairs_kept"])],
                ["cache-busting pairs", f"1 in {MISS_EVERY}"],
                ["throughput, tracing on", f"{result['traced_rps']:.1f} req/s"],
                ["throughput, tracing off", f"{result['untraced_rps']:.1f} req/s"],
                ["overhead", f"{overhead * 100:.2f} %"],
                ["ceiling", f"{OVERHEAD_CEILING * 100:.0f} % "
                            f"({'enforced' if enforced else 'report-only at tiny'})"],
                [f"concurrent ({CONCURRENT_CLIENTS} clients), tracing on",
                 f"{concurrent_total / concurrent['on']:.1f} req/s (report-only)"],
                [f"concurrent ({CONCURRENT_CLIENTS} clients), tracing off",
                 f"{concurrent_total / concurrent['off']:.1f} req/s (report-only)"],
            ],
            title="Closed-loop HTTP throughput: tracing on vs off",
        ),
    )
    emit_json(
        "observability",
        {
            "overhead": dict(
                result,
                ceiling_fraction=OVERHEAD_CEILING,
                enforced=enforced,
                miss_every=MISS_EVERY,
                concurrent_clients=CONCURRENT_CLIENTS,
                concurrent_traced_rps=concurrent_total / concurrent["on"],
                concurrent_untraced_rps=concurrent_total / concurrent["off"],
            )
        },
    )
    if enforced:
        assert overhead <= OVERHEAD_CEILING, (
            f"tracing costs {overhead * 100:.2f}% closed-loop throughput "
            f"(ceiling {OVERHEAD_CEILING * 100:.0f}%)"
        )


def test_metrics_scrape_cost():
    """GET /metrics wall time with a warm registry — report-only."""
    with _fresh_server() as server:
        with create_app(server) as app:
            with HttpServerThread(app) as base_url:
                client = _connect(base_url)
                try:
                    # Populate every family the scrape will render.
                    for body in WORKLOAD:
                        assert _post(client, body)[0] == 200

                    timings: List[Tuple[int, float]] = []
                    sizes: List[int] = []
                    for _ in range(SCRAPES):
                        start = time.perf_counter()
                        client.request("GET", "/metrics")
                        response = client.getresponse()
                        data = response.read()
                        timings.append(
                            (response.status, time.perf_counter() - start)
                        )
                        sizes.append(len(data))
                finally:
                    client.close()

    assert all(status == 200 for status, _ in timings)
    best = min(seconds for _, seconds in timings)
    mean = sum(seconds for _, seconds in timings) / len(timings)
    emit(
        "observability_scrape",
        render_table(
            ["metric", "value"],
            [
                ["scrapes", str(SCRAPES)],
                ["best", f"{best * 1000:.2f} ms"],
                ["mean", f"{mean * 1000:.2f} ms"],
                ["exposition size", f"{sizes[-1]} bytes"],
            ],
            title="GET /metrics scrape cost (warm registry)",
        ),
    )
    emit_json(
        "observability",
        {
            "scrape": {
                "scrapes": SCRAPES,
                "best_seconds": best,
                "mean_seconds": mean,
                "exposition_bytes": sizes[-1],
            }
        },
    )
