"""The topology store: TopInfo metadata plus the derived tables.

Mirrors the paper's storage design (Figures 9 and 13):

* ``TopInfo(TID, ES1, ES2, DETAILS, FREQ, NCLASSES, SCORE_*)`` — one row
  per distinct topology, with one score column per ranking scheme and a
  sorted index per score column (the ET plans scan these in score
  order);
* ``AllTops(E1, E2, TID)`` — every entity pair and the topologies
  relating it (Full-Top's table);
* ``LeftTops(E1, E2, TID)`` — AllTops minus pruned topologies;
* ``ExcpTops(E1, E2, TID)`` — pairs satisfying a pruned topology's path
  condition that are *not* related by it (the exception table).

The store is populated by :mod:`repro.core.alltops`, pruned by
:mod:`repro.core.pruning`, and materialized into the host database so
the query methods can reach it through SQL.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.model import ClassSignature, Topology
from repro.core.ranking import RANKING_SCHEMES, compute_scores, score_column
from repro.core.weak import WeakPathRules
from repro.errors import TopologyError
from repro.relational.database import Database
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType

PairKey = Tuple[object, object]


class TopologyStore:
    """In-memory topology catalog + derived table rows."""

    def __init__(self, weak_rules: Optional[WeakPathRules] = None) -> None:
        self.topologies: Dict[int, Topology] = {}
        # Topology identity is (canonical structure, entity-set pair):
        # Section 4.2.1 defines frequency per (es1, es2, T), and the same
        # structure can relate pairs from different entity sets (pure
        # graph isomorphism does not pin the endpoints' types' roles).
        self._tid_by_key: Dict[Tuple[str, Tuple[str, str]], int] = {}
        self.alltops_rows: List[Tuple[object, object, int]] = []
        self.pair_classes: Dict[PairKey, FrozenSet[ClassSignature]] = {}
        self.pair_entity_types: Dict[PairKey, Tuple[str, str]] = {}
        self.truncated_pairs: int = 0
        self.weak_rules = weak_rules or WeakPathRules()
        # Filled by pruning:
        self.pruned_tids: Set[int] = set()
        self.lefttops_rows: List[Tuple[object, object, int]] = []
        self.excptops_rows: List[Tuple[object, object, int]] = []
        self._finalized = False

    # ------------------------------------------------------------------
    # Population (offline phase)
    # ------------------------------------------------------------------
    def intern(
        self,
        key: str,
        entity_pair: Tuple[str, str],
        endpoint_indices: Tuple[int, int],
        class_signatures: FrozenSet[ClassSignature],
    ) -> int:
        """Get-or-create the TID for a (structure, entity pair)."""
        tid = self._tid_by_key.get((key, entity_pair))
        if tid is not None:
            return tid
        tid = len(self.topologies) + 1
        self._tid_by_key[(key, entity_pair)] = tid
        self.topologies[tid] = Topology(
            tid=tid,
            key=key,
            entity_pair=entity_pair,
            endpoint_indices=endpoint_indices,
            class_signatures=tuple(sorted(class_signatures)),
        )
        return tid

    def record_pair(
        self,
        e1: object,
        e2: object,
        entity_pair: Tuple[str, str],
        class_signatures: FrozenSet[ClassSignature],
        topology_endpoints: Dict[str, Tuple[int, int]],
        truncated: bool,
    ) -> None:
        """Record one entity pair's offline computation output."""
        if self._finalized:
            raise TopologyError("store already finalized")
        pair: PairKey = (e1, e2)
        if pair in self.pair_classes:
            raise TopologyError(f"pair {pair!r} recorded twice")
        self.pair_classes[pair] = class_signatures
        self.pair_entity_types[pair] = entity_pair
        for key, endpoints in topology_endpoints.items():
            tid = self.intern(key, entity_pair, endpoints, class_signatures)
            self.alltops_rows.append((e1, e2, tid))
        if truncated:
            self.truncated_pairs += 1

    def finalize(self) -> None:
        """Compute frequencies and ranking scores (Section 4.2.1 / 6.1)."""
        counts: Dict[int, int] = {}
        for _, _, tid in self.alltops_rows:
            counts[tid] = counts.get(tid, 0) + 1
        for tid, topology in self.topologies.items():
            topology.frequency = counts.get(tid, 0)
        compute_scores(self.topologies.values(), self.weak_rules)
        self._finalized = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def tid_of(
        self, key: str, entity_pair: Optional[Tuple[str, str]] = None
    ) -> Optional[int]:
        """TID for a canonical key.  Without ``entity_pair`` the key must
        be unambiguous across entity pairs."""
        if entity_pair is not None:
            return self._tid_by_key.get((key, entity_pair))
        hits = [tid for (k, _), tid in self._tid_by_key.items() if k == key]
        if not hits:
            return None
        if len(hits) > 1:
            raise TopologyError(
                f"structure {key!r} is ambiguous across entity pairs; "
                f"pass entity_pair"
            )
        return hits[0]

    def topology(self, tid: int) -> Topology:
        try:
            return self.topologies[tid]
        except KeyError:
            raise TopologyError(f"unknown topology id {tid}") from None

    def topologies_for_entity_pair(self, es1: str, es2: str) -> List[Topology]:
        return [
            t for t in self.topologies.values() if t.entity_pair == (es1, es2)
        ]

    def frequency_distribution(self, es1: str, es2: str) -> List[int]:
        """Frequencies for an entity-set pair, sorted descending — the
        series plotted in Figure 11."""
        return sorted(
            (t.frequency for t in self.topologies_for_entity_pair(es1, es2)),
            reverse=True,
        )

    def pairs_for_tid(self, tid: int) -> List[PairKey]:
        return [(e1, e2) for e1, e2, t in self.alltops_rows if t == tid]

    # ------------------------------------------------------------------
    # Snapshot export / import (used by repro.persist)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """The store's full state as plain-Python containers.

        ``_tid_by_key`` is omitted: it is derived from ``topologies`` and
        rebuilt by :meth:`from_state`.
        """
        if not self._finalized:
            self.finalize()
        return {
            "topologies": [
                {
                    "tid": t.tid,
                    "key": t.key,
                    "entity_pair": list(t.entity_pair),
                    "endpoint_indices": list(t.endpoint_indices),
                    "class_signatures": [list(s) for s in t.class_signatures],
                    "frequency": t.frequency,
                    "scores": dict(t.scores),
                }
                for t in self.topologies.values()
            ],
            "alltops_rows": list(self.alltops_rows),
            "lefttops_rows": list(self.lefttops_rows),
            "excptops_rows": list(self.excptops_rows),
            "pruned_tids": sorted(self.pruned_tids),
            "pairs": [
                {
                    "e1": e1,
                    "e2": e2,
                    "entity_pair": list(self.pair_entity_types[(e1, e2)]),
                    # Sorted: pair classes live in a frozenset, whose
                    # iteration order varies with construction history;
                    # the export must be canonical so round-trips and
                    # file diffs compare equal.
                    "class_signatures": sorted(list(s) for s in classes),
                }
                for (e1, e2), classes in self.pair_classes.items()
            ],
            "truncated_pairs": self.truncated_pairs,
        }

    @classmethod
    def from_state(
        cls,
        state: Dict[str, object],
        weak_rules: Optional[WeakPathRules] = None,
    ) -> "TopologyStore":
        """Rebuild a finalized store from :meth:`export_state` output."""
        store = cls(weak_rules)
        for record in state["topologies"]:
            tid = record["tid"]
            entity_pair = tuple(record["entity_pair"])
            signatures = record["class_signatures"]
            if not (
                isinstance(signatures, tuple)
                and all(isinstance(s, tuple) for s in signatures)
            ):  # loaders may pass pre-interned tuples; normalize otherwise
                signatures = tuple(tuple(s) for s in signatures)
            topology = Topology(
                tid=tid,
                key=record["key"],
                entity_pair=entity_pair,
                endpoint_indices=tuple(record["endpoint_indices"]),
                class_signatures=signatures,
                frequency=record["frequency"],
                scores=dict(record["scores"]),
            )
            store.topologies[tid] = topology
            store._tid_by_key[(topology.key, entity_pair)] = tid
        store.alltops_rows = [
            r if type(r) is tuple else tuple(r) for r in state["alltops_rows"]
        ]
        store.lefttops_rows = [
            r if type(r) is tuple else tuple(r) for r in state["lefttops_rows"]
        ]
        store.excptops_rows = [
            r if type(r) is tuple else tuple(r) for r in state["excptops_rows"]
        ]
        store.pruned_tids = set(state["pruned_tids"])
        for record in state["pairs"]:
            pair: PairKey = (record["e1"], record["e2"])
            # tuple() returns a tuple argument itself, so the values the
            # snapshot reader shares stay shared here.
            store.pair_entity_types[pair] = tuple(record["entity_pair"])
            classes = record["class_signatures"]
            if not isinstance(classes, frozenset):
                classes = frozenset(tuple(s) for s in classes)
            store.pair_classes[pair] = classes
        store.truncated_pairs = int(state["truncated_pairs"])
        store._finalized = True
        return store

    def state_digest(self) -> str:
        """SHA-256 over the canonical JSON of :meth:`export_state`.

        Two stores digest equal iff their full exported state —
        including TID assignment and ``AllTops``/``LeftTops``/
        ``ExcpTops`` *row order* — is identical.  This is the
        "bit-identical to a serial build" check the partitioned build
        (:mod:`repro.parallel`) is verified against, cheap enough to
        run inside benchmarks."""
        return digest_state(self.export_state())

    # ------------------------------------------------------------------
    # Materialization into the relational database
    # ------------------------------------------------------------------
    def materialize(
        self,
        db: Database,
        include_alltops: bool = True,
        validate: bool = True,
    ) -> None:
        """Create and load TopInfo, AllTops, LeftTops, ExcpTops.

        Drops previous versions if present (the offline phase reruns in
        bulk, per Section 3.2).  ``validate=False`` skips per-row type
        checks — the snapshot-restore path re-materializes rows that
        already passed validation when they were first computed."""
        if not self._finalized:
            self.finalize()
        integer, real, text = DataType.INT, DataType.FLOAT, DataType.TEXT
        for name in ("TopInfo", "AllTops", "LeftTops", "ExcpTops"):
            if db.has_table(name):
                db.drop_table(name)

        topinfo_columns = [
            Column("TID", integer, True),
            Column("ES1", text, True),
            Column("ES2", text, True),
            Column("DETAILS", text, True),
            Column("FREQ", integer, True),
            Column("NCLASSES", integer, True),
            Column("PRUNED", DataType.BOOL, True),
        ] + [Column(score_column(s), real, True) for s in RANKING_SCHEMES]
        topinfo = db.create_table(TableSchema("TopInfo", topinfo_columns, primary_key="TID"))
        topinfo_rows = [
            (
                t.tid,
                t.entity_pair[0],
                t.entity_pair[1],
                t.key,
                t.frequency,
                t.num_classes,
                t.tid in self.pruned_tids,
            )
            + tuple(float(t.scores[s]) for s in RANKING_SCHEMES)
            for t in self.topologies.values()
        ]
        if validate:
            topinfo.bulk_load(topinfo_rows)
        else:
            topinfo.load_rows_unchecked(topinfo_rows)
        for scheme in RANKING_SCHEMES:
            topinfo.create_sorted_index(f"by_{scheme}", score_column(scheme))

        def load_pairs_table(name: str, rows: List[Tuple[object, object, int]]):
            schema = TableSchema(
                name,
                [
                    Column("E1", integer, True),
                    Column("E2", integer, True),
                    Column("TID", integer, True),
                ],
            )
            table = db.create_table(schema)
            if validate:
                table.bulk_load(rows)
            else:
                table.load_rows_unchecked(rows)
            table.create_hash_index("by_e1", ["E1"])
            table.create_hash_index("by_e2", ["E2"])
            table.create_hash_index("by_tid", ["TID"])
            return table

        if include_alltops:
            load_pairs_table("AllTops", self.alltops_rows)
        else:
            load_pairs_table("AllTops", [])
        # Only a store that pruning never ran on serves LeftTops from AllTops.
        lefttops = self.lefttops_rows
        if not lefttops and not self.pruned_tids:
            lefttops = self.alltops_rows
        load_pairs_table("LeftTops", lefttops)
        load_pairs_table("ExcpTops", self.excptops_rows)

    # ------------------------------------------------------------------
    # Space accounting (Table 1)
    # ------------------------------------------------------------------
    def space_report(self) -> Dict[str, int]:
        """Row counts of the derived tables, the Table-1 quantities."""
        return {
            "AllTops": len(self.alltops_rows),
            "LeftTops": len(self.lefttops_rows),
            "ExcpTops": len(self.excptops_rows),
            "TopInfo": len(self.topologies),
            "pruned_topologies": len(self.pruned_tids),
        }


def digest_state(state: Dict[str, object]) -> str:
    """:meth:`TopologyStore.state_digest` of an already exported state —
    for callers that hold the export and must not pay for a second."""
    canonical = json.dumps(state, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
