"""Concurrent serving benchmark: ``query_many`` throughput by mode.

The one measurement anywhere of :meth:`TopologyServer.query_many
<repro.service.TopologyServer.query_many>`'s ``mode="thread"`` and
``mode="process"`` (no ``python3 -m bench`` workload covers them yet;
ROADMAP item 6(c) decides which mode stays from this number).  The same
cache-busting workload (every query distinct, so engine executions
dominate — the hard case for scaling) runs single-threaded, over the
thread pool, and over warm replica processes.  The >= 2x floor at 4
workers is enforced where 2x is physically reachable: a machine with
>= 4 cores, using the replica-process path on a GIL interpreter (GIL
threads *interleave* pure-Python work — they provide concurrency, not
speedup — so on a stock build the floor additionally applies to
thread mode only when the interpreter is free-threaded).  The server
sizes the replica pool from the machine — ``min(WORKERS, max(2,
cores))`` processes — so below 4 cores ``WORKERS`` is only the thread
width.

Machine-readable results land in ``BENCH_concurrent.json`` at the repo
root so the trajectory is tracked across PRs.
"""

from __future__ import annotations

import os
import sys
import time
from typing import List

from repro.analysis import render_table
from repro.core import KeywordConstraint, NoConstraint, TopologyQuery
from repro.service import TopologyServer

from benchmarks.common import emit, emit_json, private_system

WORKERS = 4
THROUGHPUT_SCALING_FLOOR = 2.0
THREAD_OVERHEAD_FLOOR = 0.3  # GIL thread mode must stay within 1/0.3x of serial

KEYWORDS = [
    "kinase", "binding", "human", "putative", "conserved", "receptor",
    "membrane", "transcription",
]


def _gil_enabled() -> bool:
    return getattr(sys, "_is_gil_enabled", lambda: True)()


def _parallel_capable() -> bool:
    """Whether 2x at 4 workers is physically reachable on this host."""
    return (os.cpu_count() or 1) >= WORKERS


def _workload(repeat: int = 1) -> List[TopologyQuery]:
    """A read-heavy, cache-busting mix: every query distinct (unique
    (keyword, k, ranking) triples), several plan classes."""
    queries = []
    for r in range(repeat):
        for i, keyword in enumerate(KEYWORDS):
            queries.append(
                TopologyQuery(
                    "Protein",
                    "DNA",
                    KeywordConstraint("DESC", keyword),
                    NoConstraint(),
                    k=2 + (i % 4) + 4 * r,
                    ranking=("freq", "rare")[i % 2],
                )
            )
    return queries


def _fresh_server() -> TopologyServer:
    server = TopologyServer(private_system())
    # Pin plan choices: a calibrator version bump mid-measurement would
    # trigger (correct, but noisy) re-planning in one mode and not
    # another.
    server.system.calibration_enabled = False
    server.system.restore_calibration(None)
    return server


def _throughput(seconds: float, queries: int) -> float:
    return queries / max(seconds, 1e-9)


def test_read_heavy_throughput_scales(benchmark):
    workload = _workload(repeat=3)

    # -- Serial baseline: one thread, cold caches -----------------------
    with _fresh_server() as server:
        start = time.perf_counter()
        serial_results = [server.query(q) for q in workload]
        serial_seconds = time.perf_counter() - start
    oracle = [r.tids for r in serial_results]

    # -- Thread pool: shared engine, 4 workers --------------------------
    with _fresh_server() as server:
        start = time.perf_counter()
        thread_results = server.query_many(workload, parallel=WORKERS)
        thread_seconds = time.perf_counter() - start
    assert [r.tids for r in thread_results] == oracle

    # -- Replica processes: 4 warm replicas -----------------------------
    with _fresh_server() as server:
        # Warm the pool (process start + snapshot restore) off the
        # clock: a serving deployment pays that once, not per batch.
        server.query_many(workload[:WORKERS], parallel=WORKERS, mode="process")
        server.invalidate()

        def run_replicas():
            return server.query_many(workload, parallel=WORKERS, mode="process")

        start = time.perf_counter()
        process_results = benchmark.pedantic(run_replicas, iterations=1, rounds=1)
        process_seconds = time.perf_counter() - start
    assert [r.tids for r in process_results] == oracle

    serial_qps = _throughput(serial_seconds, len(workload))
    thread_qps = _throughput(thread_seconds, len(workload))
    process_qps = _throughput(process_seconds, len(workload))
    thread_scaling = thread_qps / serial_qps
    process_scaling = process_qps / serial_qps

    cores = os.cpu_count() or 1
    enforce_process = _parallel_capable()
    enforce_thread = _parallel_capable() and not _gil_enabled()
    emit(
        "concurrent_throughput",
        render_table(
            ["mode", "queries/s", "vs serial", "floor"],
            [
                ["serial (1 thread)", f"{serial_qps:.1f}", "1.00x", "-"],
                [
                    f"threads ({WORKERS})",
                    f"{thread_qps:.1f}",
                    f"{thread_scaling:.2f}x",
                    f">={THROUGHPUT_SCALING_FLOOR:.0f}x"
                    if enforce_thread
                    else f">={THREAD_OVERHEAD_FLOOR:.1f}x (GIL interleaves)",
                ],
                [
                    f"replica processes ({WORKERS})",
                    f"{process_qps:.1f}",
                    f"{process_scaling:.2f}x",
                    f">={THROUGHPUT_SCALING_FLOOR:.0f}x"
                    if enforce_process
                    else f"report only ({cores} core(s))",
                ],
            ],
            title=(
                f"Read-heavy throughput, {len(workload)} distinct queries "
                f"({cores} cores, GIL {'on' if _gil_enabled() else 'off'})"
            ),
        ),
    )
    emit_json(
        "concurrent",
        {
            "throughput": {
                "workload_queries": len(workload),
                "workers": WORKERS,
                "cores": cores,
                "gil_enabled": _gil_enabled(),
                "serial_qps": serial_qps,
                "thread_qps": thread_qps,
                "process_qps": process_qps,
                "thread_scaling": thread_scaling,
                "process_scaling": process_scaling,
                "scaling_floor": THROUGHPUT_SCALING_FLOOR,
                "floor_enforced_process": enforce_process,
                "floor_enforced_thread": enforce_thread,
            }
        },
    )
    if enforce_process:
        assert process_scaling >= THROUGHPUT_SCALING_FLOOR, (
            f"replica fan-out must reach >={THROUGHPUT_SCALING_FLOOR}x serial "
            f"throughput at {WORKERS} workers on {cores} cores; got "
            f"{process_scaling:.2f}x ({serial_qps:.1f} -> {process_qps:.1f} q/s)"
        )
    if enforce_thread:
        assert thread_scaling >= THROUGHPUT_SCALING_FLOOR, (
            f"free-threaded build: thread pool must reach "
            f">={THROUGHPUT_SCALING_FLOOR}x; got {thread_scaling:.2f}x"
        )
    else:
        # Even when the GIL forbids speedup, coordination overhead must
        # stay bounded: threads may interleave, not collapse.
        assert thread_scaling >= THREAD_OVERHEAD_FLOOR, (
            f"thread-pool coordination overhead too high: "
            f"{thread_scaling:.2f}x of serial throughput"
        )
