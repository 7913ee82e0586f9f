"""Partitioned multi-process offline build: pool fan-out + serial merge.

:func:`compute_alltops_parallel` is the bulk-build counterpart of
:func:`repro.core.alltops.compute_alltops`:

1. **Partition** — the source-entity space of every requested entity
   pair is split into ``partitions`` deterministic hash buckets
   (:mod:`repro.parallel.partition`); one task = one (pair, bucket).
2. **Fan out** — a ``multiprocessing`` pool runs
   :func:`repro.parallel.worker.run_partition` over the tasks.  The
   graph and build parameters ship **once per worker** via the pool
   initializer, so task dispatch carries only two integers.  Tasks are
   consumed unordered — scheduling jitter cannot affect the result.
3. **Merge** — the parent replays every worker record through the
   store in *serial order* (pair list order, then graph insertion
   order of sources), so TID interning, ``AllTops`` row order, and all
   derived state come out **bit-identical** to a single-process build
   (``TopologyStore.state_digest()`` equality; the property tests
   assert it for multiple worker/partition combinations).

The merge is sequential and cheap (no path enumeration, no
canonicalization — just dict replay); its cost is reported separately
so benchmarks can track merge overhead against fan-out gains.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.alltops import (
    AllTopsReport,
    nodes_by_type,
    replay_source_records,
    validate_entity_pairs,
)
from repro.core.store import TopologyStore
from repro.core.topologies import DEFAULT_COMBINATION_CAP
from repro.errors import TopologyError
from repro.obs import span as obs_span
from repro.parallel.partition import stable_partition
from repro.parallel.worker import (
    BuildContext,
    PartitionResult,
    clear_context,
    init_worker,
    install_context,
    make_payload,
    run_partition,
)

# Oversubscribe partitions relative to workers by default: more, smaller
# tasks smooth out skew (weak-relationship hot spots concentrate work in
# a few sources) at negligible dispatch cost.
DEFAULT_PARTITIONS_PER_WORKER = 4


@dataclass
class TaskVolume:
    """Volume of one (pair, partition) task."""

    pair_index: int
    partition_index: int
    sources_scanned: int
    pairs_related: int


@dataclass
class ParallelBuildReport:
    """What the partitioned build did, for tests and the benchmark."""

    workers: int
    partitions: int
    start_method: str
    tasks: List[TaskVolume] = field(default_factory=list)
    merge_seconds: float = 0.0


def _pick_start_method(requested: Optional[str]) -> str:
    """``fork`` where available (cheap, the graph is shared copy-on-write
    until pickled), otherwise ``spawn``; explicit requests win."""
    available = multiprocessing.get_all_start_methods()
    if requested is not None:
        if requested not in available:
            raise TopologyError(
                f"start method {requested!r} not available; "
                f"choose from {available}"
            )
        return requested
    return "fork" if "fork" in available else "spawn"


def compute_alltops_parallel(
    graph,
    entity_pairs: Sequence[Tuple[str, str]],
    max_length: int,
    workers: int,
    partitions: Optional[int] = None,
    store: Optional[TopologyStore] = None,
    combination_cap: int = DEFAULT_COMBINATION_CAP,
    per_pair_path_limit: Optional[int] = None,
    start_method: Optional[str] = None,
) -> Tuple[TopologyStore, AllTopsReport, ParallelBuildReport]:
    """Partitioned, multi-process equivalent of ``compute_alltops``.

    Returns the same ``(store, report)`` pair plus a
    :class:`ParallelBuildReport`.  The store is bit-identical to what
    the serial function produces for the same inputs (see module
    docstring).  ``workers=1`` still goes through the pool + merge
    machinery (useful for overhead measurements); use the serial
    function directly when no pool is wanted.
    """
    if workers < 1:
        raise TopologyError(f"workers must be >= 1, got {workers}")
    validate_entity_pairs(entity_pairs)
    if partitions is None:
        partitions = workers * DEFAULT_PARTITIONS_PER_WORKER
    if partitions < 1:
        raise TopologyError(f"partitions must be >= 1, got {partitions}")

    if store is None:
        store = TopologyStore()
    report = AllTopsReport(tuple(entity_pairs), max_length)
    method = _pick_start_method(start_method)
    parallel_report = ParallelBuildReport(
        workers=workers, partitions=partitions, start_method=method
    )
    start = time.perf_counter()

    build_context = BuildContext(
        graph=graph,
        entity_pairs=tuple((es1, es2) for es1, es2 in entity_pairs),
        max_length=max_length,
        combination_cap=combination_cap,
        per_pair_path_limit=per_pair_path_limit,
        num_partitions=partitions,
    )
    tasks = [
        (pair_index, partition_index)
        for pair_index in range(len(entity_pairs))
        for partition_index in range(partitions)
    ]

    # The type index serves three consumers: forked workers (inherited
    # below), the merge loop, and the completeness check — one pass.
    by_type = nodes_by_type(graph)

    # Under fork, install the context in the parent so children inherit
    # the graph copy-on-write — no pickling at all.  Spawned workers
    # can't inherit memory, so they get one pickled payload each.
    if method == "fork":
        install_context(build_context, by_type)
        initargs: Tuple[Optional[bytes]] = (None,)
    else:
        initargs = (make_payload(build_context),)

    results: Dict[Tuple[int, int], PartitionResult] = {}
    context = multiprocessing.get_context(method)
    try:
        with obs_span(
            "build.fanout",
            workers=workers,
            partitions=partitions,
            start_method=method,
        ), context.Pool(
            processes=workers, initializer=init_worker, initargs=initargs
        ) as pool:
            # Unordered consumption: the merge below imposes its own
            # order, so nothing here depends on completion order.
            for result in pool.imap_unordered(run_partition, tasks):
                results[(result.pair_index, result.partition_index)] = result
                parallel_report.tasks.append(
                    TaskVolume(
                        pair_index=result.pair_index,
                        partition_index=result.partition_index,
                        sources_scanned=result.sources_scanned,
                        pairs_related=result.pairs_related,
                    )
                )
    finally:
        if method == "fork":
            clear_context()

    # Serial-order merge: pair list order, then graph insertion order.
    # Looking each source up in its owning bucket's result replays the
    # exact record sequence the serial loop would have produced.
    merge_start = time.perf_counter()
    with obs_span("build.merge", tasks=len(tasks)):
        for pair_index, (es1, es2) in enumerate(entity_pairs):
            for source in by_type.get(es1, []):
                bucket = stable_partition(source, partitions)
                result = results.get((pair_index, bucket))
                if result is None:  # pragma: no cover - pool must yield all
                    raise TopologyError(
                        f"partition task ({pair_index}, {bucket}) never returned"
                    )
                records = result.records.get(source)
                if records:
                    replay_source_records(
                        store, report, source, (es1, es2), records
                    )
        # Completeness check: every pair a worker related must have been
        # replayed.  Node ids that don't survive the worker round-trip —
        # identity-equality objects, or types whose repr differs across
        # processes (see partition._canonical_bytes's fallback) — would
        # otherwise vanish from the store silently.
        produced = sum(r.pairs_related for r in results.values())
        if report.pairs_related != produced:
            raise TopologyError(
                f"partitioned merge replayed {report.pairs_related} related "
                f"pairs but workers produced {produced}; node ids must "
                f"round-trip pickling with value equality (int/str/bytes/"
                f"tuples thereof) to be partitionable"
            )
        store.finalize()
    parallel_report.merge_seconds = time.perf_counter() - merge_start

    report.canonical_searches = sum(
        r.canonical_searches for r in results.values()
    )
    report.distinct_topologies = len(store.topologies)
    report.truncated_pairs = store.truncated_pairs
    report.elapsed_seconds = time.perf_counter() - start
    return store, report, parallel_report
