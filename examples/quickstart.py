"""Quickstart: the paper's running example (Figures 3-5), end to end.

Loads the exact Figure-3 database, runs the offline phase, evaluates
query Q1 = {(Protein, desc contains 'enzyme'), (DNA, type = 'mRNA')},
and prints the four topology results T1-T4 with their witnessing pairs —
exactly the output Section 2.2 derives by hand.  It then snapshots the
built system to disk, restores it in milliseconds, and serves the same
query through the cached :class:`TopologyServer`.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import os
import tempfile

from repro.biozon import build_figure3_database
from repro.core import (
    AttributeConstraint,
    InstanceRetriever,
    KeywordConstraint,
    TopologyQuery,
    TopologySearchSystem,
)
from repro.persist import load_system, save_system, snapshot_info
from repro.service import TopologyServer


def main() -> None:
    # 1. Load the example database (paper Figure 3).
    db = build_figure3_database()
    print(f"Loaded {db.name}: {sorted(db.table_names())}\n")

    # 2. Offline phase: Topology Computation + Pruning (paper Figure 10).
    system = TopologySearchSystem(db)
    report = system.build([("Protein", "DNA")], max_length=3)
    print(
        f"Offline phase: {report.alltops.pairs_related} related pairs, "
        f"{report.alltops.distinct_topologies} distinct topologies "
        f"({report.elapsed_seconds:.3f}s)\n"
    )

    # 3. The paper's query Q1 (Example 2.1).
    query = TopologyQuery(
        "Protein",
        "DNA",
        KeywordConstraint("DESC", "enzyme"),
        AttributeConstraint("TYPE", "mRNA"),
    )
    print(f"Query: {query.describe()}\n")

    # 4. Evaluate with Fast-Top (Section 4.3) and show the topologies.
    result = system.search(query, method="fast-top")
    retriever = InstanceRetriever(system)
    print(f"{len(result.tids)} topology results (paper: T1, T2, T3, T4):\n")
    for tid in result.tids:
        topology = system.topology(tid)
        pairs = retriever.pairs_for_topology(tid)
        print(f"  T{tid}  ({topology.num_classes} class(es), freq {topology.frequency})")
        print(f"      structure: {topology.display()}")
        print(f"      witnessed by pairs: {pairs}")
    print()

    # 5. Drill into the most complex topology's instances.
    richest = max(result.tids, key=lambda t: system.topology(t).num_edges)
    instances = retriever.instances(richest, query=query)
    print(f"Instances of T{richest}:")
    for inst in instances:
        print(f"  entities {sorted(map(str, inst.entities()))}")

    # 6. Same query, top-2 by rarity, via the cost-based optimizer —
    #    and EXPLAIN: the chosen plan with every alternative's cost.
    topk = TopologyQuery(
        "Protein",
        "DNA",
        KeywordConstraint("DESC", "enzyme"),
        AttributeConstraint("TYPE", "mRNA"),
        k=2,
        ranking="rare",
    )
    ranked = system.search(topk, method="fast-top-k-opt")
    print(f"\nTop-2 by rarity: {ranked.tids} (strategy: {ranked.plan.strategy})")
    print("\n" + system.explain(topk, "fast-top-k-opt").display(topk))

    # 7. Persist the offline phase: save once, cold-start from the
    #    snapshot ever after (no rebuild).
    path = os.path.join(tempfile.mkdtemp(prefix="repro-quickstart-"), "fig3.topo")
    save_system(system, path)
    info = snapshot_info(path)
    print(
        f"\nSaved snapshot {path} "
        f"({info.file_bytes} bytes, {info.topologies} topologies)"
    )
    restored = load_system(path)
    same = restored.search(query, method="fast-top")
    print(f"Restored system answers identically: {same.tids == result.tids}")

    # 8. Serve queries through the cached serving layer.
    service = TopologyServer(restored, cache_size=64)
    service.query(topk)   # engine execution (miss)
    service.query(topk)   # LRU cache hit
    stats = service.cache_stats()
    print(
        f"Service cache: {stats.hits} hit(s), {stats.misses} miss(es), "
        f"hit rate {stats.hit_rate:.0%}"
    )


if __name__ == "__main__":
    main()
