"""Concurrent serving benchmark: ``query_many`` throughput, serial vs
replica processes.

The one measurement anywhere of :meth:`TopologyServer.query_many
<repro.service.TopologyServer.query_many>`'s ``mode="process"`` (no
``python3 -m bench`` workload covers it yet; ROADMAP item 6(c) decides
from this number whether the mode stays).  The same cache-busting
workload (every query distinct, so engine executions dominate — the
hard case for scaling) runs serially on one thread and over warm
replica processes.  The >= 2x floor at 4 workers is enforced where 2x
is physically reachable: a machine with >= 4 cores.  The server sizes
the replica pool from the machine — ``min(WORKERS, max(2, cores))``
processes.

Machine-readable results land in ``BENCH_concurrent.json`` at the repo
root so the trajectory is tracked across PRs.
"""

from __future__ import annotations

import os
import time
from typing import List

from repro.analysis import render_table
from repro.core import KeywordConstraint, NoConstraint, TopologyQuery
from repro.service import TopologyServer

from benchmarks.common import emit, emit_json, private_system

WORKERS = 4
THROUGHPUT_SCALING_FLOOR = 2.0

KEYWORDS = [
    "kinase", "binding", "human", "putative", "conserved", "receptor",
    "membrane", "transcription",
]


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
        serial_results = server.query_many(workload)
        serial_seconds = time.perf_counter() - start
    oracle = [r.tids for r in serial_results]

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
    process_qps = _throughput(process_seconds, len(workload))
    process_scaling = process_qps / serial_qps

    cores = os.cpu_count() or 1
    enforce_process = _parallel_capable()
    emit(
        "concurrent_throughput",
        render_table(
            ["mode", "queries/s", "vs serial", "floor"],
            [
                ["serial (1 thread)", f"{serial_qps:.1f}", "1.00x", "-"],
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
                f"({cores} cores)"
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
                "serial_qps": serial_qps,
                "process_qps": process_qps,
                "process_scaling": process_scaling,
                "scaling_floor": THROUGHPUT_SCALING_FLOOR,
                "floor_enforced_process": enforce_process,
            }
        },
    )
    if enforce_process:
        assert process_scaling >= THROUGHPUT_SCALING_FLOOR, (
            f"replica fan-out must reach >={THROUGHPUT_SCALING_FLOOR}x serial "
            f"throughput at {WORKERS} workers on {cores} cores; got "
            f"{process_scaling:.2f}x ({serial_qps:.1f} -> {process_qps:.1f} q/s)"
        )
