"""``offline_build``: the write side of the store the other workloads read.

Phase A, quiet::

    generate -> TopologySearchSystem.build (serial) -> save_system
             -> load_system -> split_system(2) + verify_split

Phase B: a ``TopologyServer`` over the *loaded* system is rebuilt
(``server.rebuild()``, a hot swap) while one reader thread issues
hot-set ``server.query`` calls with a fixed think time.  A read is timed
from the moment it was due, so what a rebuild costs a reader — waiting
for the interpreter lock the build thread holds — counts; every answer
is checked against the oracle and generation stamps must never go back.

What the end-to-end metrics mean here:

``setup_s``          generate the dataset and construct the engine —
                     everything before ``build()`` (median of eleven)
``throughput_rps``   AllTops rows taken through the whole cycle (build,
                     save, load, split + verify, hot rebuild) per second
``latency_p50_ms`` / ``latency_p95_ms``   reads issued during the rebuild
``peak_rss_mb``      this process, which does all of the above
``snapshot_mb``      the snapshot written by this run

The whole process keeps to one core.  ``setup_s`` and the phases that
make up ``throughput_rps`` are reported at reference speed: while they
run, a :class:`~bench.measure.SpeedSampler` makes the main thread time a
reference kernel five times a second (the measured values are in
``info.raw``).  The read latencies are not: a read waits for the
interpreter's switch interval, a timer the machine's speed does not
stretch.

The traced run times the same functions one level down (enumerate,
prune, materialize; a 2-worker partitioned enumeration, whose store
must digest equal to the serial one; save; load; split; verify).
"""

from __future__ import annotations

import gc
import os
import shutil
import threading
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

from bench import OUT
from bench.fixture import MAX_LENGTH, NUM_SHARDS, PAIRS, dataset, new_system
from bench.measure import (
    CPUS,
    SpeedSampler,
    latency_summary,
    median,
    peak_rss_mb,
    pin,
    ratio,
)
from bench.oracle import Oracle
from bench.workloads import Request

SETUP_REPEATS = 11
# Builder and reader are one interpreter's threads: they never run at
# the same time, so one core holds them, and it is the core probed.  Left
# to the scheduler, the reader's wake-ups crossed cores and the share of
# reads that wait two switch intervals moved between 3 % and 8 % — across
# the 5 % that ``latency_p95_ms`` reads.
CORE = CPUS[:1]
# How a phase that runs for seconds follows the kernel: time ~ kernel
# time to this power.  A kernel that interrupts a build finds its table
# evicted and feels a slow spell more than the build does.  Fitted over
# 72 builds recorded while the machine's speed ranged over a factor of
# two (0.5-0.6 fit best), and checked on two sets of ten runs taken an
# hour and a mode apart: their median throughput differed by 15 % as
# measured, 19 % scaled in proportion and 4 % scaled to this power (the
# spread of all twenty: 20 %, 17 %, 6 %).  The set-up repeats, 50 ms
# each and as cold as the kernel, follow it in proportion.
PHASE_RESPONSE = 0.6
THINK_SECONDS = 0.001
READS_AFTER_SWAP = 64


class _Phases:
    """Times named calls on the main thread while a
    :class:`~bench.measure.SpeedSampler` reads the machine's speed."""

    def __init__(self, sampler: SpeedSampler) -> None:
        self.sampler = sampler
        self.seconds: Dict[str, float] = {}  # as measured, without the sampler's kernels
        self.spans: Dict[str, Tuple[float, float]] = {}

    def run(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        value = fn(*args, **kwargs)
        end = time.perf_counter()
        self.seconds[name] = end - start - self.sampler.own_seconds(start, end)
        self.spans[name] = (start, end)
        return value

    def factor(self, name: str, response: float = 1.0) -> float:
        return self.sampler.factor(*self.spans[name]) ** response

    def at_reference(self, name: str, response: float = 1.0) -> float:
        return self.seconds[name] * self.factor(name, response)


def _rebuild_under_reads(
    server: Any, reads: Sequence[Request], phases: _Phases
) -> List[Tuple[float, float, Any, int]]:
    """Hot-rebuild ``server`` (phase ``rebuild``) while a reader cycles
    through ``reads``.  Returns, per read, (due time, latency from due,
    result, index into ``reads``)."""
    log: List[Tuple[float, float, Any, int]] = []
    state = {"swapped": False, "left": READS_AFTER_SWAP}

    def reader() -> None:
        clock = time.perf_counter
        at = 0
        while state["left"] > 0:
            due = clock() + THINK_SECONDS
            time.sleep(THINK_SECONDS)
            index = at % len(reads)
            result = server.query(reads[index].query, reads[index].method)
            log.append((due, clock() - due, result, index))
            at += 1
            if state["swapped"]:
                state["left"] -= 1

    thread = threading.Thread(target=reader, name="bench-reader")
    thread.start()
    try:
        phases.run("rebuild", server.rebuild)
    finally:
        state["swapped"] = True
        thread.join()
    return log


def _check_reads(
    oracle: Oracle, reads: Sequence[Request], log: Sequence[Tuple[float, float, Any, int]]
) -> int:
    """Wrong answers plus generation stamps that went backwards."""
    failed = 0
    newest = 0
    for _, _, result, index in log:
        ok = oracle.matches(reads[index].query, result.tids, result.scores)
        if not ok or result.generation < newest:
            failed += 1
        newest = max(newest, result.generation)
    if newest != 2:  # the reader must have seen the swapped-in generation
        failed += 1
    return failed


def _workdir(label: str) -> str:
    path = os.path.join(OUT, f"offline-{label}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run_offline(
    n_proteins: int, reads: Sequence[Request], traced: bool
) -> Dict[str, Any]:
    pin(os.getpid(), CORE)
    try:
        with SpeedSampler() as sampler:
            return _cycle(n_proteins, reads, traced, _Phases(sampler))
    finally:
        pin(os.getpid(), CPUS)


def _cycle(
    n_proteins: int, reads: Sequence[Request], traced: bool, phases: _Phases
) -> Dict[str, Any]:
    from repro.core import TopologyStore, apply_pruning, compute_alltops
    from repro.parallel import compute_alltops_parallel
    from repro.persist import load_system, read_store_state, save_system
    from repro.service import TopologyServer
    from repro.shard import split_system, verify_split

    for repeat in range(SETUP_REPEATS):
        # Freeing the previous engine is no part of constructing one:
        # left to the collector it fell into every second repeat and
        # made them 50 or 72 ms.
        system = None
        gc.collect()
        system = phases.run(f"setup.{repeat}", lambda: new_system(dataset(n_proteins)))
    setup = median(phases.at_reference(f"setup.{r}") for r in range(SETUP_REPEATS))
    setup_raw = median(phases.seconds[f"setup.{r}"] for r in range(SETUP_REPEATS))

    work = _workdir("traced" if traced else "e2e")
    checks_failed = 0
    try:
        # ---- phase A --------------------------------------------------
        if traced:
            store, _ = phases.run(
                "compute", compute_alltops, system.graph, PAIRS, MAX_LENGTH,
                store=TopologyStore(system.weak_rules),
            )
            phases.run("prune", apply_pruning, store)
            phases.run(
                "materialize",
                lambda: (store.materialize(system.database), system.stats.refresh()),
            )
            system.adopt_store(store, MAX_LENGTH, PAIRS)
            pin(os.getpid(), CPUS)  # the two workers get a core each
            twin, _, parallel = phases.run(
                "parallel", compute_alltops_parallel, system.graph, PAIRS, MAX_LENGTH,
                workers=2, store=TopologyStore(system.weak_rules),
            )
            pin(os.getpid(), CORE)
            apply_pruning(twin)
            checks_failed += twin.state_digest() != store.state_digest()
            build = ("compute", "prune", "materialize")
        else:
            phases.run("build", system.build, list(PAIRS), max_length=MAX_LENGTH)
            build = ("build",)
        store = system.require_store()
        snapshot = os.path.join(work, "single.topo")
        phases.run("save", save_system, system, snapshot)
        loaded = phases.run("load", load_system, snapshot)
        checks_failed += loaded.require_store().state_digest() != store.state_digest()
        shards = os.path.join(work, "shards")
        # Either way a ShardError is raised unless the split is lossless.
        if traced:
            report = phases.run("split", split_system, system, NUM_SHARDS, shards, verify=False)
            phases.run(
                "verify",
                lambda: verify_split(
                    store.export_state(), [read_store_state(p) for p in report.shard_paths]
                ),
            )
            split = ("split", "verify")
        else:
            report = phases.run("split", split_system, system, NUM_SHARDS, shards)
            split = ("split",)
        snapshot_bytes = os.path.getsize(snapshot)

        # ---- phase B --------------------------------------------------
        # The oracle answers from the engine built above; the server
        # serves the one restored from disk, as a fresh process would.
        with TopologyServer(loaded) as server:
            for request in reads:
                server.query(request.query, request.method)
            log = _rebuild_under_reads(server, reads, phases)
        read_failures = _check_reads(Oracle(system), reads, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    cycle = build + ("save", "load") + split + ("rebuild",)
    took = phases.seconds
    during = [latency for _, latency, result, _ in log if result.generation == 1]
    latency = latency_summary(during or [latency for _, latency, _, _ in log])
    rows = len(store.alltops_rows)
    lifecycle_checks = 2 + traced  # loaded digest, lossless split, parallel digest
    layers = {
        "biozon.generate_s": setup_raw,
        "core.engine.build_s": sum(took[name] for name in build),
        "offline.total_s": sum(took[name] for name in cycle if name != "rebuild"),
        "persist.save_s": took["save"],
        "persist.load_s": took["load"],
        "persist.bytes_per_alltops_row": ratio(snapshot_bytes, rows),
        "core.alltops.rows": rows,
        "core.store.lefttops_rows": len(store.lefttops_rows),
        "core.store.topologies": len(store.topologies),
        "core.pruning.kept_ratio": ratio(len(store.lefttops_rows), rows),
        "shard.row_skew": report.skew,
        "shard.bytes_over_single": ratio(sum(report.file_bytes), snapshot_bytes),
        "service.server.rebuild_s": took["rebuild"],
        "service.server.rebuild_read_p95_us": latency["p95_ms"] * 1e3,
        "service.server.rebuild_reads": len(during),
    }
    if traced:
        layers.update({
            "core.alltops.compute_s": took["compute"],
            "core.pruning.prune_s": took["prune"],
            "core.store.materialize_s": took["materialize"],
            "parallel.compute_s.w2": took["parallel"],
            "parallel.merge_s": parallel.merge_seconds,
            "parallel.speedup_w2": ratio(took["compute"], took["parallel"]),
            "shard.split_s": took["split"],
            "shard.verify_s": took["verify"],
        })
    return {
        "attempted": len(log) + lifecycle_checks,
        "failed": read_failures + checks_failed,
        "metrics": {
            "setup_s": setup,
            "throughput_rps": ratio(
                rows, sum(phases.at_reference(name, PHASE_RESPONSE) for name in cycle)
            ),
            "latency_p50_ms": latency["p50_ms"],
            "latency_p95_ms": latency["p95_ms"],
            "peak_rss_mb": peak_rss_mb(os.getpid()),
            "snapshot_mb": snapshot_bytes / 1e6,
        },
        "layers": layers,
        "info": {
            "samples": latency["samples"],
            "latency_p99_ms": latency["p99_ms"],
            "reads_total": len(log),
            "phases_s": {name: took[name] for name in cycle},
            "speed_factors": {name: round(phases.factor(name, PHASE_RESPONSE), 4) for name in cycle},
            "raw": {
                "setup_s": setup_raw,
                "throughput_rps": ratio(rows, sum(took[name] for name in cycle)),
            },
            "state_digest": store.state_digest(),
        },
    }
