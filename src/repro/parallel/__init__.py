"""Partitioned, multi-process offline build pipeline.

The paper's offline phase (topology computation → pruning →
materialization, Figure 10) is the cost that dominates operation at
Biozon scale (28M objects / 9.6M relationships).  This package spreads
the computation step over worker processes while guaranteeing the
output is **bit-identical** to a single-process build.
``TopologySearchSystem.build`` does not use it: since the serial build
canonicalises each union shape once, two workers no longer beat it.
It stays as the comparison ``python3 -m bench`` measures
(``parallel.speedup_w2``):

>>> from repro.parallel import compute_alltops_parallel
>>> store, report, preport = compute_alltops_parallel(
...     graph, [("Protein", "DNA")], max_length=3, workers=4)

Module tour: :mod:`~repro.parallel.partition` (deterministic hash
buckets over source node ids), :mod:`~repro.parallel.worker` (the
per-process task runner; context shipped once via the pool
initializer), :mod:`~repro.parallel.build` (fan-out + serial-order
merge).  ``docs/OFFLINE_PIPELINE.md`` walks through the whole offline
story stage by stage.
"""

from repro.parallel.build import (
    DEFAULT_PARTITIONS_PER_WORKER,
    ParallelBuildReport,
    TaskVolume,
    compute_alltops_parallel,
)
from repro.parallel.partition import (
    histogram_skew,
    partition_histogram,
    partition_sources,
    stable_partition,
)

__all__ = [
    "DEFAULT_PARTITIONS_PER_WORKER",
    "ParallelBuildReport",
    "TaskVolume",
    "compute_alltops_parallel",
    "histogram_skew",
    "partition_histogram",
    "partition_sources",
    "stable_partition",
]
