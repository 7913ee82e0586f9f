"""Worker-process side of the partitioned offline build.

Each worker receives the build context **once** — inherited
copy-on-write under the ``fork`` start method (the parent installs it
before the pool starts; no pickling at all), or as a single pickled
payload through the pool initializer under ``spawn`` — and then
executes many small partition tasks against that shared state.  Tasks
themselves carry only ``(pair_index, partition_index)``, so task
dispatch stays cheap no matter how large the graph is.

Workers are pure functions of (context, task): they never touch a
:class:`~repro.core.store.TopologyStore` and never intern TIDs.  They
return plain :class:`~repro.core.alltops.PairRecord` data, and the
parent merges those records in serial order
(:mod:`repro.parallel.build`), which is what keeps the merged store
bit-identical to a single-process build.

Everything here must stay importable at module top level: under the
``spawn`` start method (macOS/Windows default) the pool re-imports this
module in each worker and resolves :func:`init_worker` /
:func:`run_partition` by qualified name.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.alltops import PairRecord, nodes_by_type, pair_source_records
from repro.core.topologies import ShapeMemo
from repro.graph.labeled_graph import LabeledGraph, NodeId
from repro.parallel.partition import stable_partition

# Per-process build context, installed by init_worker.  A plain module
# global: multiprocessing gives every worker its own module instance.
_CONTEXT: Dict[str, object] = {}


@dataclass(frozen=True)
class BuildContext:
    """Everything a worker needs, shipped once per worker."""

    graph: LabeledGraph
    entity_pairs: Tuple[Tuple[str, str], ...]
    max_length: int
    combination_cap: int
    per_pair_path_limit: Optional[int]
    num_partitions: int


@dataclass(frozen=True)
class PartitionResult:
    """One task's output: the records of every source in the bucket.

    ``records`` maps source node id -> its :class:`PairRecord` list in
    the source's local enumeration order; sources appear in graph
    insertion order (the worker walks the shared type index), though
    the merge re-derives the global order itself and only ever looks
    buckets up by source id.  ``canonical_searches`` is how much this
    task grew the worker's shape memo.
    """

    pair_index: int
    partition_index: int
    records: Dict[NodeId, List[PairRecord]]
    sources_scanned: int
    pairs_related: int
    canonical_searches: int = 0


def make_payload(context: BuildContext) -> bytes:
    """Pickle the build context once in the parent.  Only the ``spawn``
    start method pays this cost (plus one unpickle per worker); under
    ``fork`` the context is installed in the parent before the pool
    starts and children inherit it copy-on-write, pickle-free."""
    return pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)


def install_context(
    context: BuildContext,
    by_type: Optional[Dict[str, List[NodeId]]] = None,
) -> None:
    """Install the build context in this process.

    Called either from a worker initializer (``spawn``) or — for the
    ``fork`` start method — in the *parent* immediately before the pool
    is created, so every forked child inherits the graph and the type
    index without any serialization.  The parent must call
    :func:`clear_context` once the pool is done.  ``by_type`` lets a
    caller that already holds the type index share it instead of paying
    another full-graph pass."""
    _CONTEXT["context"] = context
    # The type index is shared by every task this worker runs; build it
    # once per process (or once pre-fork) rather than once per task.
    _CONTEXT["by_type"] = (
        by_type if by_type is not None else nodes_by_type(context.graph)
    )
    # One shape memo per process, shared by its tasks like the type
    # index (a forked child inherits this empty dict and fills its own).
    _CONTEXT["shape_memo"] = {}


def clear_context() -> None:
    """Drop the installed context (parent-side cleanup after a fork
    pool; harmless if nothing is installed)."""
    _CONTEXT.clear()


def init_worker(payload: Optional[bytes] = None) -> None:
    """Pool initializer.  ``payload=None`` means the context was
    inherited via fork; bytes mean unpickle-and-install (spawn)."""
    if payload is None:
        if "context" not in _CONTEXT:  # pragma: no cover - misuse guard
            raise RuntimeError(
                "forked worker started without an installed build context"
            )
        return
    install_context(pickle.loads(payload))


def run_partition(task: Tuple[int, int]) -> PartitionResult:
    """Execute one (entity pair, partition) task in this worker."""
    pair_index, partition_index = task
    context: BuildContext = _CONTEXT["context"]  # type: ignore[assignment]
    by_type: Dict[str, List[NodeId]] = _CONTEXT["by_type"]  # type: ignore[assignment]
    shape_memo: ShapeMemo = _CONTEXT["shape_memo"]  # type: ignore[assignment]
    searches_before = len(shape_memo)
    es1, es2 = context.entity_pairs[pair_index]
    records: Dict[NodeId, List[PairRecord]] = {}
    sources_scanned = 0
    pairs_related = 0
    for source in by_type.get(es1, []):
        if stable_partition(source, context.num_partitions) != partition_index:
            continue
        sources_scanned += 1
        source_records = pair_source_records(
            context.graph,
            source,
            (es1, es2),
            context.max_length,
            combination_cap=context.combination_cap,
            per_pair_path_limit=context.per_pair_path_limit,
            shape_memo=shape_memo,
        )
        if source_records:
            records[source] = source_records
            pairs_related += len(source_records)
    return PartitionResult(
        pair_index=pair_index,
        partition_index=partition_index,
        records=records,
        sources_scanned=sources_scanned,
        pairs_related=pairs_related,
        canonical_searches=len(shape_memo) - searches_before,
    )
