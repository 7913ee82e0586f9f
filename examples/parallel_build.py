"""Parallel offline build walk-through (and CI smoke test).

Builds the same synthetic Biozon instance twice — single-process and
with a 2-worker partitioned pool (:mod:`repro.parallel`) — verifies the
two stores are bit-identical, shows the per-partition timing report,
and round-trips the build configuration through a snapshot so a
restored service rebuilds in parallel automatically.

Run:  python examples/parallel_build.py
"""

from __future__ import annotations

import os
import tempfile

from repro.biozon import BiozonConfig, generate
from repro.core import TopologySearchSystem
from repro.persist import snapshot_info
from repro.service import TopologyServer

WORKERS = 2
PAIRS = [("Protein", "DNA"), ("Protein", "Interaction")]


def fresh_system() -> TopologySearchSystem:
    ds = generate(BiozonConfig.tiny(seed=7))
    return TopologySearchSystem(ds.database, ds.graph())


def main() -> None:
    # 1. Baseline: the single-process offline phase.
    serial = fresh_system()
    report = serial.build(PAIRS, max_length=3)
    print(
        f"serial build:   {report.elapsed_seconds:.3f}s "
        f"({report.alltops.pairs_related} pairs, "
        f"{report.alltops.distinct_topologies} topologies)"
    )

    # 2. The same build, partitioned across a worker pool.
    parallel = fresh_system()
    report = parallel.build(PAIRS, max_length=3, parallel=WORKERS)
    p = report.parallel
    print(
        f"parallel build: {report.elapsed_seconds:.3f}s "
        f"({p.workers} workers, {p.partitions} partitions/pair, "
        f"merge {p.merge_seconds:.3f}s, skew {p.partition_skew():.2f})"
    )
    slowest = max(p.tasks, key=lambda t: t.elapsed_seconds)
    print(
        f"  slowest task: pair #{slowest.pair_index} "
        f"partition #{slowest.partition_index} "
        f"({slowest.sources_scanned} sources, {slowest.elapsed_seconds:.3f}s)"
    )

    # 3. The contract: bit-identical stores, not just equivalent answers.
    assert parallel.store.state_digest() == serial.store.state_digest()
    print("stores bit-identical: True")

    # 4. Snapshots record how the store was built; a restored service
    #    reuses that configuration on rebuild.
    with tempfile.TemporaryDirectory(prefix="repro-parallel-") as tmp:
        path = os.path.join(tmp, "demo.topo")
        parallel.save(path)
        info = snapshot_info(path)
        print(f"snapshot build_config: {info.build_config}")
        service = TopologyServer.from_snapshot(path)
    rebuilt = service.rebuild()
    assert rebuilt.parallel is not None and rebuilt.parallel.workers == WORKERS
    assert service.system.store.state_digest() == serial.store.state_digest()
    print(f"service rebuild reused {rebuilt.parallel.workers} workers: True")


if __name__ == "__main__":
    main()
