"""Core data model: topologies and their identities.

A *topology* (Definition 2/3) is an isomorphism class of labeled graphs
obtained by unioning one representative path per equivalence class
between a pair of entities.  Internally a topology is identified by the
canonical form of such a graph; the :class:`Topology` record also keeps
the metadata the paper's TopInfo table stores (structure description,
frequency, scores) plus the canonical positions of the two endpoints
(needed to anchor instance retrieval).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.graph.canonical import (
    CanonicalForm,
    canonical_key,
    graph_from_canonical,
    parse_canonical_key,
)
from repro.graph.labeled_graph import LabeledGraph

# A path equivalence class is identified by its direction-normalized
# label signature (node type, edge type, node type, ...).
ClassSignature = Tuple[str, ...]


@dataclass
class Topology:
    """One topology with its TopInfo metadata.

    tid
        Integer topology id (the TID of the paper's tables).
    key
        Canonical string form (the TopInfo ``details`` column).
    entity_pair
        ``(es1, es2)`` entity-set names the topology relates.
    endpoint_indices
        Canonical node indices of the two endpoints (es1 endpoint first).
    class_signatures
        Path-equivalence classes whose union realizes the topology.
    frequency
        Number of entity pairs related by this topology (Section 4.2.1).
    """

    tid: int
    key: str
    entity_pair: Tuple[str, str]
    endpoint_indices: Tuple[int, int]
    class_signatures: Tuple[ClassSignature, ...]
    frequency: int = 0
    scores: Dict[str, float] = field(default_factory=dict)

    @property
    def form(self) -> CanonicalForm:
        return parse_canonical_key(self.key)

    @property
    def num_classes(self) -> int:
        return len(self.class_signatures)

    @property
    def num_nodes(self) -> int:
        return len(self.form[0])

    @property
    def num_edges(self) -> int:
        return len(self.form[1])

    @property
    def is_single_path(self) -> bool:
        """Is the structure a simple path?  (The frequent topologies the
        paper prunes are overwhelmingly of this shape, Figure 12.)"""
        if self.num_classes != 1:
            return False
        node_types, edges = self.form
        degree = [0] * len(node_types)
        for i, j, _ in edges:
            degree[i] += 1
            degree[j] += 1
        return (
            len(edges) == len(node_types) - 1
            and sorted(degree) == [1, 1] + [2] * (len(node_types) - 2)
        )

    def graph(self) -> LabeledGraph:
        """A representative graph (node ids = canonical indices)."""
        return graph_from_canonical(self.form)

    def display(self) -> str:
        """Human-readable structure, e.g. for example output:
        ``Protein(0) -encodes- DNA(1); ...``"""
        node_types, edges = self.form
        parts = [
            f"{node_types[i]}({i}) -{etype}- {node_types[j]}({j})"
            for i, j, etype in edges
        ]
        return "; ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Topology(tid={self.tid}, classes={self.num_classes}, {self.key})"


@dataclass(frozen=True)
class PairTopologies:
    """Offline computation output for one entity pair: its equivalence
    classes and the topologies they give rise to."""

    e1: object
    e2: object
    class_signatures: FrozenSet[ClassSignature]
    topology_keys: Tuple[str, ...]
    truncated: bool = False
