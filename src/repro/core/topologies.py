"""Reference implementation of Definitions 1-3 (Section 2.2).

These functions compute path equivalence classes, per-pair topologies,
and full query topology results directly over the data graph.  They are
the semantic ground truth: every query-processing method (Full-Top,
Fast-Top, the top-k variants) must agree with them, which the test suite
checks on both the Figure-3 fixture and random synthetic databases.

Determinism
-----------
Definition 2's enumeration is deterministic end to end, and the offline
phase (:mod:`repro.core.alltops`) — including its partitioned variant in
:mod:`repro.parallel` — relies on that:

* equivalence classes are visited in **sorted signature order**
  (``sorted(classes)`` in :func:`topologies_from_classes`), not dict
  order, so the representative cross-product is the same regardless of
  how the class dict was built;
* within one class, representatives keep their path-enumeration order
  (DFS emission order — see :mod:`repro.graph.paths`);
* ``itertools.product`` walks combinations in a fixed lexicographic
  order over those lists, so the *first-encounter order of canonical
  keys* — which downstream TID interning depends on — is a pure
  function of the input classes;
* the returned dict preserves that first-encounter order (insertion
  ordered), which is why callers may treat ``topologies.items()`` as an
  ordered sequence.

The combination cap
-------------------
``combination_cap`` bounds the number of representative combinations
*inspected* (not the number of distinct topologies returned).  Weak
relationships can reach thousands of paths per pair at l=4 (Section
6.2.3), making the cross-product astronomically large; the cap cuts the
walk after ``combination_cap`` combinations and reports
``truncated=True``.  Because the walk order is deterministic, a capped
enumeration is still reproducible: serial and partitioned builds cap at
the same combination and therefore agree on the (possibly partial)
topology set.  The cap counts combinations inspected whether or not the
shape memo answered them.

The shape memo
--------------
The instances of one path-class combination have the same few shapes,
so a build canonicalises each shape once: a dict from :func:`shape_key`
to ``(canonical key, endpoint positions)``, one per ``compute_alltops``
call or per :mod:`repro.parallel` worker process.  A hit builds no
graph and runs no search; a miss is the un-memoised code, and the
oracle the tests compare hits against.  The key must determine the
union's *construction*, not just its isomorphism class: for a topology
with automorphisms the order ``canonical_form_and_order`` returns —
hence the endpoint positions, hence ``state_digest`` — depends on node
insertion order (the search walks a cell in dict order and keeps the
first of equal encodings).  ``union_all`` inserts nodes by first
occurrence across the representatives, so the key relabels ids by that
(edge orientation and order do not matter: refinement and encoding
sort), and it says where ``a`` and ``b`` sit, because paths need not
run ``a -> b``.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.model import ClassSignature, PairTopologies
from repro.graph.canonical import canonical_form_and_order, render_key
from repro.graph.labeled_graph import EdgeId, LabeledGraph, NodeId, Path, union_all
from repro.graph.paths import path_set

# Safety valve for Definition 2's cross-product of representatives; the
# paper hits the same explosion on weak relationships (Section 6.2.3).
DEFAULT_COMBINATION_CAP = 4096


def path_equivalence_classes(
    graph: LabeledGraph,
    a: NodeId,
    b: NodeId,
    max_length: int,
    per_pair_limit: Optional[int] = None,
) -> Dict[ClassSignature, List[Path]]:
    """Definition 1: ``l-PathEC(a, b)`` — the simple paths of length ≤ l
    between a and b, grouped into labeled-isomorphism classes.

    For path-shaped graphs the direction-normalized label signature *is*
    a canonical form, so grouping is a dictionary build rather than
    repeated isomorphism tests.
    """
    grouped: Dict[ClassSignature, List[Path]] = {}
    for path in path_set(graph, a, b, max_length, limit=per_pair_limit):
        grouped.setdefault(path.signature(), []).append(path)
    return grouped


# One path of a combination: forward labels, then node ids and edge ids
# relabelled by first occurrence across the combination.
PathShape = Tuple[Tuple[str, ...], Tuple[int, ...], Tuple[int, ...]]
ShapeKey = Tuple[Tuple[PathShape, ...], Optional[int], Optional[int]]
ShapeMemo = Dict[ShapeKey, Tuple[str, Tuple[int, int]]]


def shape_key(combo: Sequence[Path], a: NodeId, b: NodeId) -> ShapeKey:
    """What determines the construction of ``union_all`` over ``combo``
    (see "The shape memo" in the module docstring)."""
    nodes: Dict[NodeId, int] = {}
    edges: Dict[EdgeId, int] = {}
    parts: List[PathShape] = []
    for p in combo:
        node_ids = tuple([nodes.setdefault(n, len(nodes)) for n in p.nodes])
        edge_ids = tuple([edges.setdefault(e, len(edges)) for e in p.edges])
        parts.append((p.label_sequence(), node_ids, edge_ids))
    return tuple(parts), nodes.get(a), nodes.get(b)


def topologies_from_classes(
    classes: Dict[ClassSignature, List[Path]],
    a: NodeId,
    b: NodeId,
    combination_cap: int = DEFAULT_COMBINATION_CAP,
    shape_memo: Optional[ShapeMemo] = None,
) -> Tuple[Dict[str, Tuple[int, int]], bool]:
    """Definition 2 core: union one representative per class, over all
    choices, and canonicalize.

    Returns ``(topologies, truncated)`` where ``topologies`` maps the
    canonical key of each distinct union to the canonical indices of the
    endpoints ``(a, b)``, and ``truncated`` reports whether the
    ``combination_cap`` cut enumeration short.

    The returned dict is insertion-ordered by **first encounter** during
    the deterministic combination walk (classes in sorted-signature
    order, representatives in path-enumeration order); TID assignment in
    :class:`~repro.core.store.TopologyStore` replays this order, so it
    must not be re-sorted here.

    ``shape_memo`` carries canonicalisations across the calls of one
    build; without one, a fresh dict serves this call alone.
    """
    if not classes:
        return {}, False
    if shape_memo is None:
        shape_memo = {}
    class_lists = [classes[sig] for sig in sorted(classes)]

    out: Dict[str, Tuple[int, int]] = {}
    truncated = False
    count = 0
    for combo in itertools.product(*class_lists):
        count += 1
        if count > combination_cap:
            truncated = True
            break
        shape = shape_key(combo, a, b)
        known = shape_memo.get(shape)
        if known is None:
            union = union_all([p.as_graph() for p in combo])
            form, order = canonical_form_and_order(union)
            position = {nid: i for i, nid in enumerate(order)}
            known = (render_key(form), (position[a], position[b]))
            shape_memo[shape] = known
        key, endpoints = known
        out.setdefault(key, endpoints)
    return out, truncated


def topologies_for_pair(
    graph: LabeledGraph,
    a: NodeId,
    b: NodeId,
    max_length: int,
    combination_cap: int = DEFAULT_COMBINATION_CAP,
) -> PairTopologies:
    """Definition 2: ``l-Top(a, b)``."""
    classes = path_equivalence_classes(graph, a, b, max_length)
    topologies, truncated = topologies_from_classes(classes, a, b, combination_cap)
    return PairTopologies(
        e1=a,
        e2=b,
        class_signatures=frozenset(classes),
        topology_keys=tuple(sorted(topologies)),
        truncated=truncated,
    )


def topology_result(
    graph: LabeledGraph,
    set_a: Iterable[NodeId],
    set_b: Iterable[NodeId],
    max_length: int,
    combination_cap: int = DEFAULT_COMBINATION_CAP,
) -> Dict[str, Set[Tuple[NodeId, NodeId]]]:
    """Definition 3: the l-topology result of a query whose satisfying
    entity sets are ``set_a`` and ``set_b``.

    Returns each topology's canonical key mapped to the witnessing
    entity pairs (the paper reports topologies first, then the
    instance-level pairs per topology).
    """
    out: Dict[str, Set[Tuple[NodeId, NodeId]]] = {}
    set_b = list(set_b)
    seen_pairs: Set[Tuple[NodeId, NodeId]] = set()
    for a in set_a:
        for b in set_b:
            if a == b or (a, b) in seen_pairs:
                continue
            seen_pairs.add((a, b))
            pair = topologies_for_pair(graph, a, b, max_length, combination_cap)
            for key in pair.topology_keys:
                out.setdefault(key, set()).add((a, b))
    return out
