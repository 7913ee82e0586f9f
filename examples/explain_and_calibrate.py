"""Explain your query, then let execution feedback recalibrate it.

Walks the plan layer end to end on a synthetic Biozon instance:

1. ``explain()`` — the cost-based optimizer's chosen plan with every
   alternative's estimated cost and the operator tree the engine builds
   for it (the DGJ stack of Figure 15, or the System-R plan of the
   regular statement, Figure 14);
2. plan caching — repeated same-class queries skip the optimizer
   (watch ``planning_seconds`` collapse and the plan-cache hits climb);
3. calibration — each execution feeds (estimated cost, observed work)
   to the :class:`~repro.core.plan.CostCalibrator`; its learned
   per-strategy factors shift the next planning round;
4. persistence — the learned factors ride along in a snapshot, so a
   cold-started service plans with them immediately.

Run:  python examples/explain_and_calibrate.py
"""

from __future__ import annotations

import os
import tempfile

from repro.biozon import BiozonConfig, generate
from repro.core import (
    KeywordConstraint,
    NoConstraint,
    TopologyQuery,
    TopologySearchSystem,
)
from repro.service import TopologyServer


def main() -> None:
    ds = generate(BiozonConfig.tiny(seed=4))
    system = TopologySearchSystem(ds.database, ds.graph())
    system.build([("Protein", "DNA")], max_length=3)

    query = TopologyQuery(
        "Protein",
        "DNA",
        KeywordConstraint("DESC", "kinase"),
        NoConstraint(),
        k=5,
        ranking="freq",
    )

    # 1. EXPLAIN: the plan search() would execute, costs included.
    print("=== EXPLAIN (uncalibrated) ===")
    print(system.explain(query, "fast-top-k-opt").display(query))

    # 2. Plan caching: same-class queries skip the optimizer.
    system.invalidate_plans()  # drop the plan explain() just cached
    first = system.search(query, "fast-top-k-opt")
    repeat = system.search(
        TopologyQuery(
            "Protein", "DNA",
            KeywordConstraint("DESC", "kinase"), NoConstraint(),
            k=7, ranking="freq",                 # same class: k-bucket 8
        ),
        "fast-top-k-opt",
    )
    stats = system.plan_cache_stats()
    print(
        f"\nPlanning: {first.planning_seconds * 1e3:.3f} ms cold -> "
        f"{repeat.planning_seconds * 1e3:.3f} ms warm "
        f"(plan cache: {stats.hits} hits / {stats.misses} misses)"
    )

    # 3. Calibration: run each strategy so the calibrator sees real
    #    work counters, then re-plan with the learned factors.
    from repro.core.methods.et import FastTopKEtMethod

    for _ in range(3):
        system.search(query, "fast-top-k")                      # regular
        FastTopKEtMethod(system, flavor="idgj").run(query)      # et-idgj
        FastTopKEtMethod(system, flavor="hdgj").run(query)      # et-hdgj
    system.invalidate_plans()
    print("\n=== EXPLAIN (calibrated) ===")
    print(system.explain(query, "fast-top-k-opt").display(query))
    print("\nLearned factors:", system.calibrator.snapshot()["strategies"])

    # 4. Persistence: the factors survive a snapshot round trip.
    path = os.path.join(tempfile.mkdtemp(prefix="repro-explain-"), "calibrated.topo")
    system.save(path)
    service = TopologyServer.from_snapshot(path)
    restored_factors = service.calibration_stats()["strategies"]
    print(f"\nRestored service keeps its calibration: {restored_factors}")
    print(
        "Restored choice:",
        service.explain(query, "fast-top-k-opt").strategy,
    )


if __name__ == "__main__":
    main()
