"""Canonical forms for small labeled multigraphs.

The paper's Definition 1/2 require grouping graphs by labeled-graph
isomorphism (the relation ``G ≃ G'`` of Section 2.1).  Rather than
pairwise isomorphism tests, we compute a *canonical form* — a hashable
value equal for two graphs iff they are isomorphic — so isomorphism
classes become dictionary keys.  This is the backbone of path
equivalence classes, topology identity (``TID``), and the dedup step of
the offline AllTops computation.

Algorithm: individualization–refinement (the classical scheme behind
nauty, without its pruning machinery — topologies are tiny graphs, at
most a few tens of nodes, so the exhaustive variant is both simple and
fast enough):

1. colour nodes by node type,
2. refine colours by iterating "my colour + multiset of (edge type,
   neighbour colour) over incident edges" until stable,
3. if the colouring is discrete, read the encoding off the colour order;
   otherwise individualize each member of the first non-singleton colour
   class in turn, refine, and recurse,
4. the canonical form is the lexicographically smallest encoding found.

The branching set in step 3 is determined by the stable colouring, which
is isomorphism-invariant, so the minimum over branches is too.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.graph.labeled_graph import LabeledGraph, NodeId

# A canonical form: (node-type tuple in canonical order, sorted edge
# tuples (i, j, edge_type) with i < j canonical indices).
CanonicalForm = Tuple[Tuple[str, ...], Tuple[Tuple[int, int, str], ...]]


def _refine(graph: LabeledGraph, colors: Dict[NodeId, int]) -> Dict[NodeId, int]:
    """Stable colour refinement (1-dimensional Weisfeiler-Leman with edge
    labels).  Signatures are re-indexed in sorted order every round so the
    result is deterministic and isomorphism-invariant."""
    num_colors = len(set(colors.values()))
    while True:
        signatures: Dict[NodeId, Tuple] = {}
        for v in graph.nodes():
            neighborhood = sorted(
                (graph.edge_type(eid), colors[nbr]) for eid, nbr in graph.neighbors(v)
            )
            signatures[v] = (colors[v], tuple(neighborhood))
        ordered = sorted(set(signatures.values()))
        index = {sig: i for i, sig in enumerate(ordered)}
        new_colors = {v: index[signatures[v]] for v in signatures}
        new_num = len(ordered)
        if new_num == num_colors:
            return new_colors
        colors = new_colors
        num_colors = new_num


def _encode(graph: LabeledGraph, order: List[NodeId]) -> CanonicalForm:
    """Encode the graph under a total node order."""
    position = {nid: i for i, nid in enumerate(order)}
    node_types = tuple(graph.node_type(nid) for nid in order)
    edge_rows: List[Tuple[int, int, str]] = []
    for eid in graph.edges():
        u, v = graph.edge_endpoints(eid)
        i, j = position[u], position[v]
        if i > j:
            i, j = j, i
        edge_rows.append((i, j, graph.edge_type(eid)))
    edge_rows.sort()
    return node_types, tuple(edge_rows)


def _first_non_singleton_cell(colors: Dict[NodeId, int]) -> Optional[List[NodeId]]:
    """Members of the smallest-indexed colour class with more than one
    node, or ``None`` if the colouring is discrete."""
    by_color: Dict[int, List[NodeId]] = {}
    for v, c in colors.items():
        by_color.setdefault(c, []).append(v)
    for c in sorted(by_color):
        cell = by_color[c]
        if len(cell) > 1:
            return cell
    return None


def canonical_form_and_order(
    graph: LabeledGraph,
) -> Tuple[CanonicalForm, List[NodeId]]:
    """Canonical form plus the node order realizing it.

    The order maps canonical index -> original node id, letting callers
    track which canonical positions specific nodes (e.g. a topology's
    two endpoints) occupy.
    """
    if graph.node_count == 0:
        return ((), ()), []

    initial_types = sorted(set(graph.node_type(v) for v in graph.nodes()))
    type_index = {t: i for i, t in enumerate(initial_types)}
    colors = {v: type_index[graph.node_type(v)] for v in graph.nodes()}
    colors = _refine(graph, colors)

    best: List[Optional[Tuple[CanonicalForm, List[NodeId]]]] = [None]

    def search(current: Dict[NodeId, int]) -> None:
        cell = _first_non_singleton_cell(current)
        if cell is None:
            order = sorted(current, key=current.__getitem__)
            encoding = _encode(graph, order)
            if best[0] is None or encoding < best[0][0]:
                best[0] = (encoding, order)
            return
        fresh = max(current.values()) + 1
        for v in cell:
            branched = dict(current)
            branched[v] = fresh
            search(_refine(graph, branched))

    search(colors)
    assert best[0] is not None
    return best[0]


def canonical_form(graph: LabeledGraph) -> CanonicalForm:
    """Canonical form of a labeled multigraph.

    ``canonical_form(g1) == canonical_form(g2)`` iff ``g1`` and ``g2``
    are isomorphic as labeled graphs (same node/edge types, including
    parallel-edge multiplicities).
    """
    form, _ = canonical_form_and_order(graph)
    return form


def canonical_key(graph: LabeledGraph) -> str:
    """Compact, deterministic string rendering of the canonical form.

    Suitable as a storage key (the ``details`` column of the paper's
    TopInfo table stores exactly this structural description).
    """
    return render_key(canonical_form(graph))


def render_key(form: CanonicalForm) -> str:
    """The key of a canonical form already in hand (no search)."""
    node_types, edges = form
    nodes_part = ",".join(node_types)
    edges_part = ";".join(f"{i}-{j}:{t}" for i, j, t in edges)
    return f"[{nodes_part}]|[{edges_part}]"


def graph_from_canonical(form: CanonicalForm) -> LabeledGraph:
    """Materialize a representative graph from a canonical form (node ids
    are the canonical indices).  Useful for rendering topologies."""
    node_types, edges = form
    g = LabeledGraph()
    for i, t in enumerate(node_types):
        g.add_node(i, t)
    for k, (i, j, t) in enumerate(edges):
        g.add_edge(f"ce{k}", i, j, t)
    return g


def parse_canonical_key(key: str) -> CanonicalForm:
    """Inverse of :func:`canonical_key`."""
    nodes_part, edges_part = key.split("|")
    nodes_inner = nodes_part[1:-1]
    node_types = tuple(nodes_inner.split(",")) if nodes_inner else ()
    edges_inner = edges_part[1:-1]
    edges: List[Tuple[int, int, str]] = []
    if edges_inner:
        for item in edges_inner.split(";"):
            endpoints, etype = item.split(":", 1)
            i, j = endpoints.split("-")
            edges.append((int(i), int(j), etype))
    return node_types, tuple(edges)


def are_isomorphic(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    """Labeled-graph isomorphism via canonical forms (the ``≃`` relation)."""
    if g1.node_count != g2.node_count or g1.edge_count != g2.edge_count:
        return False
    if g1.type_counts() != g2.type_counts():
        return False
    return canonical_form(g1) == canonical_form(g2)
