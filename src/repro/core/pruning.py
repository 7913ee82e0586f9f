"""Topology Pruning module (Section 4.2, Figure 10).

The Zipfian frequency distribution (Figure 11) means a handful of
topologies account for most AllTops rows.  Pruning them:

* shrinks the stored table dramatically (Table 1's LeftTops column),
* keeps queries correct because a pruned topology's *path condition* is
  cheap to check online, and
* uses an exception table for the one subtlety: a pair may satisfy a
  pruned topology's path condition while actually being related by a
  more complex topology (entities 78/215 vs T2 in the paper) — such
  pairs go to ExcpTops and are subtracted at query time.

``ExcpTops = {(a, b, T) : CS(T) ⊆ classes(a, b)  and  T ∉ l-Top(a, b)}``

where ``CS(T) ⊆ classes(a, b)`` (every constituent class of T has an
instance path between a and b) is exactly the condition the online SQL
chain joins test — necessary for ``T ∈ l-Top(a, b)``, so the exception
subtraction makes Fast-Top exact for *any* pruned set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.store import TopologyStore
from repro.errors import TopologyError


@dataclass
class PruneReport:
    """What pruning did — the numbers behind Table 1."""

    threshold: int
    pruned_tids: Tuple[int, ...]
    alltops_rows: int
    lefttops_rows: int
    excptops_rows: int

    @property
    def space_ratio(self) -> float:
        """(LeftTops + ExcpTops) / AllTops — the paper's Ratio column."""
        if self.alltops_rows == 0:
            return 1.0
        return (self.lefttops_rows + self.excptops_rows) / self.alltops_rows


def suggest_threshold(
    store: TopologyStore, max_pruned_fraction: float = 0.03
) -> int:
    """Pick a frequency threshold pruning at most ``max_pruned_fraction``
    of topologies (the paper pruned 19 of 805 ≈ 2.4% with its 2M
    threshold, chosen "based on the expected performance gains")."""
    freqs = sorted((t.frequency for t in store.topologies.values()), reverse=True)
    if not freqs:
        return 0
    budget = max(1, int(len(freqs) * max_pruned_fraction))
    # Prune the topologies strictly above the frequency at the budget
    # boundary; ties at the boundary stay unpruned.
    return freqs[budget] if budget < len(freqs) else freqs[-1]


def apply_pruning(store: TopologyStore, threshold: Optional[int] = None) -> PruneReport:
    """Prune topologies with frequency > threshold; build LeftTops and
    ExcpTops.  With ``threshold=None`` a threshold is suggested from the
    frequency distribution."""
    if threshold is None:
        threshold = suggest_threshold(store)
    if threshold < 0:
        raise TopologyError("threshold must be >= 0")

    pruned: Set[int] = {
        tid for tid, t in store.topologies.items() if t.frequency > threshold
    }
    store.pruned_tids = pruned
    store.lefttops_rows = [
        row for row in store.alltops_rows if row[2] not in pruned
    ]

    excp: List[Tuple[object, object, int]] = []
    pruned_class_sets = {
        tid: (
            store.topologies[tid].entity_pair,
            frozenset(store.topologies[tid].class_signatures),
        )
        for tid in pruned
    }
    # The (e1, e2, tid) memberships of pruned topologies: what l-Top
    # holds for the exception test, derived from AllTops for this call.
    related = {row for row in store.alltops_rows if row[2] in pruned}
    for (e1, e2), classes in store.pair_classes.items():
        pair_types = store.pair_entity_types[(e1, e2)]
        for tid, (entity_pair, class_set) in pruned_class_sets.items():
            if (
                entity_pair == pair_types
                and class_set <= classes
                and (e1, e2, tid) not in related
            ):
                excp.append((e1, e2, tid))
    store.excptops_rows = excp

    return PruneReport(
        threshold=threshold,
        pruned_tids=tuple(sorted(pruned)),
        alltops_rows=len(store.alltops_rows),
        lefttops_rows=len(store.lefttops_rows),
        excptops_rows=len(excp),
    )
