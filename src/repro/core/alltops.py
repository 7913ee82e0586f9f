"""Offline Topology Computation module (Section 4.1, Figure 10).

For each requested entity-set pair, enumerate all simple paths of
length ≤ l between entities of the two sets, group them into equivalence
classes per pair, realize the pair's l-topologies (Definition 2), and
record everything into a :class:`~repro.core.store.TopologyStore`.

The paper drives this with one SQL query per schema path and merges the
results per entity pair; we drive it with one pruned DFS per source
entity, which produces the identical per-pair path sets (tests verify
this against the SQL chain joins) while being the natural formulation
over the in-memory graph.

Enumeration order and determinism
---------------------------------
The offline phase is **fully deterministic**, and downstream consumers
depend on the exact order, not just the contents:

1. Entity-set pairs are processed in the order given to
   :func:`compute_alltops` (duplicates, in either orientation, are
   rejected up front).
2. Within a pair ``(ES1, ES2)``, source entities of type ``ES1`` are
   visited in **graph insertion order** (``LabeledGraph`` stores nodes
   in insertion-ordered dicts, which for Biozon-style loads means
   primary-key order).
3. For one source ``a``, endpoints ``b`` appear in the order
   :func:`~repro.graph.paths.paths_from_source` first reaches them
   (DFS over insertion-ordered adjacency lists), and the paths inside
   each endpoint bucket are in DFS emission order.  For an unordered
   pair (``ES1 == ES2``) only the ``a < b`` orientation is kept.
4. Distinct topologies of one pair are recorded in the first-encounter
   order of :func:`~repro.core.topologies.topologies_from_classes`
   (itself deterministic; see that module's docstring).

Consequences: TIDs are interned in first-encounter order, ``AllTops``
rows are appended in the order above, and two runs over the same graph
and pair list produce byte-identical stores.  The partitioned build in
:mod:`repro.parallel` leans on exactly this contract — workers compute
:func:`pair_source_records` for disjoint source buckets, and the merge
replays them in the serial order (1)-(3), which reproduces the serial
TID interning (4) without any cross-process coordination.  Anything
that changes this order is a format-breaking change and must be
mirrored in :mod:`repro.parallel` and called out in
``docs/OFFLINE_PIPELINE.md``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.store import TopologyStore
from repro.core.topologies import (
    DEFAULT_COMBINATION_CAP,
    ShapeMemo,
    topologies_from_classes,
)
from repro.errors import TopologyError
from repro.graph.labeled_graph import LabeledGraph, NodeId, Path
from repro.graph.paths import paths_from_source


@dataclass
class AllTopsReport:
    """Summary of one offline computation run."""

    entity_pairs: Tuple[Tuple[str, str], ...]
    max_length: int
    pairs_related: int = 0
    alltops_rows: int = 0
    distinct_topologies: int = 0
    truncated_pairs: int = 0
    elapsed_seconds: float = 0.0
    # Definition-2 combinations inspected, and how many missed the shape
    # memo and ran the canonical-form search.  The second is larger in
    # an N-worker build than in a serial one: one memo per process.
    combinations: int = 0
    canonical_searches: int = 0


@dataclass(frozen=True)
class PairRecord:
    """One (source, endpoint) pair's offline output, as plain data.

    This is the unit of work exchanged between the computation and the
    store (and, in the partitioned build, between worker processes and
    the merging parent — every field pickles cheaply):

    ``endpoint``
        The right entity ``b``.
    ``class_signatures``
        The pair's path-equivalence-class signatures, in DFS
        first-encounter order (the store keeps them as a frozenset, so
        the order here is irrelevant to correctness but kept stable
        anyway).
    ``topology_items``
        ``(canonical key, (endpoint index of a, endpoint index of b))``
        per distinct topology, in **first-encounter order** — the order
        TID interning depends on.
    ``truncated``
        Whether the path limit or the combination cap cut this pair's
        enumeration short.
    ``combinations``
        Definition-2 combinations inspected (at most the combination cap).
    """

    endpoint: NodeId
    class_signatures: Tuple[Tuple[str, ...], ...]
    topology_items: Tuple[Tuple[str, Tuple[int, int]], ...]
    truncated: bool
    combinations: int = 0


def validate_entity_pairs(entity_pairs: Sequence[Tuple[str, str]]) -> None:
    """Reject a pair list containing duplicates in either orientation."""
    seen = set()
    for es1, es2 in entity_pairs:
        key = (es1, es2)
        if key in seen or (es2, es1) in seen:
            raise TopologyError(f"entity pair {key!r} listed twice")
        seen.add(key)


def nodes_by_type(graph: LabeledGraph) -> Dict[str, List[NodeId]]:
    """Group node ids by entity type, preserving graph insertion order
    (the source-visit order of the offline phase)."""
    grouped: Dict[str, List[NodeId]] = {}
    for node in graph.nodes():
        grouped.setdefault(graph.node_type(node), []).append(node)
    return grouped


def pair_source_records(
    graph: LabeledGraph,
    source: NodeId,
    entity_pair: Tuple[str, str],
    max_length: int,
    combination_cap: int = DEFAULT_COMBINATION_CAP,
    per_pair_path_limit: Optional[int] = None,
    shape_memo: Optional[ShapeMemo] = None,
) -> List[PairRecord]:
    """Compute every :class:`PairRecord` for one source entity.

    One pruned DFS from ``source`` reaches every endpoint of type
    ``entity_pair[1]``; per endpoint, paths are grouped into equivalence
    classes and realized into topologies (Definition 2).  This is the
    kernel shared by the serial loop (:func:`compute_alltops`) and the
    partition workers (:mod:`repro.parallel.worker`) — keeping them on
    one code path is what makes "parallel build ≡ serial build" a
    structural guarantee rather than a test-enforced one.  Both hand in
    a ``shape_memo`` that outlives the call (:mod:`repro.core.topologies`).
    """
    es1, es2 = entity_pair
    endpoint_paths = paths_from_source(
        graph, source, max_length, es2, per_pair_limit=per_pair_path_limit
    )
    records: List[PairRecord] = []
    for b, paths in endpoint_paths.items():
        if es1 == es2 and not _ordered(source, b):
            continue  # unordered pair: keep one orientation
        classes: Dict[Tuple[str, ...], List[Path]] = {}
        for path in paths:
            classes.setdefault(path.signature(), []).append(path)
        truncated = (
            per_pair_path_limit is not None
            and len(paths) >= per_pair_path_limit
        )
        topology_endpoints, combo_truncated = topologies_from_classes(
            classes, source, b, combination_cap, shape_memo
        )
        records.append(
            PairRecord(
                endpoint=b,
                class_signatures=tuple(classes),
                topology_items=tuple(topology_endpoints.items()),
                truncated=truncated or combo_truncated,
                combinations=min(
                    combination_cap, math.prod(map(len, classes.values()))
                ),
            )
        )
    return records


def replay_source_records(
    store: TopologyStore,
    report: AllTopsReport,
    source: NodeId,
    entity_pair: Tuple[str, str],
    records: Iterable[PairRecord],
) -> None:
    """Feed one source's records into the store, updating the report.

    Records must arrive in the order :func:`pair_source_records`
    produced them — the store interns TIDs on first encounter, so the
    replay order *is* the TID assignment."""
    for record in records:
        store.record_pair(
            source,
            record.endpoint,
            entity_pair,
            frozenset(record.class_signatures),
            dict(record.topology_items),
            record.truncated,
        )
        report.pairs_related += 1
        report.alltops_rows += len(record.topology_items)
        report.combinations += record.combinations


def compute_alltops(
    graph: LabeledGraph,
    entity_pairs: Sequence[Tuple[str, str]],
    max_length: int,
    store: Optional[TopologyStore] = None,
    combination_cap: int = DEFAULT_COMBINATION_CAP,
    per_pair_path_limit: Optional[int] = None,
) -> Tuple[TopologyStore, AllTopsReport]:
    """Populate (or extend) a store with every pair's topologies.

    ``per_pair_path_limit`` truncates the path set of hot pairs (weak
    relationships reach thousands of paths per pair at l=4 in the
    paper); ``combination_cap`` bounds Definition 2's representative
    cross-product.  Both truncations are counted in the report.

    ``TopologySearchSystem.build`` runs this; the benchmark compares
    it with :func:`repro.parallel.compute_alltops_parallel`, which
    partitions the source space across a worker pool and merges into
    an identical store.
    """
    if store is None:
        store = TopologyStore()
    validate_entity_pairs(entity_pairs)

    report = AllTopsReport(tuple(entity_pairs), max_length)
    start = time.perf_counter()
    by_type = nodes_by_type(graph)
    shape_memo: ShapeMemo = {}

    for es1, es2 in entity_pairs:
        for a in by_type.get(es1, []):
            records = pair_source_records(
                graph,
                a,
                (es1, es2),
                max_length,
                combination_cap=combination_cap,
                per_pair_path_limit=per_pair_path_limit,
                shape_memo=shape_memo,
            )
            replay_source_records(store, report, a, (es1, es2), records)

    store.finalize()
    report.distinct_topologies = len(store.topologies)
    report.truncated_pairs = store.truncated_pairs
    report.canonical_searches = len(shape_memo)
    report.elapsed_seconds = time.perf_counter() - start
    return store, report


def _ordered(a: NodeId, b: NodeId) -> bool:
    try:
        return a < b  # type: ignore[operator]
    except TypeError:
        return str(a) < str(b)
