"""Generate SQL join chains for path-equivalence classes.

The Fast-Top method checks pruned topologies online with "relatively
simple" SQL joins along the pruned topology's path structure (the
``Uni_encodes JOIN Uni_contains`` of the paper's SQL1).  This module
turns a class signature like ``(Protein, uni_encodes, Unigene,
uni_contains, DNA)`` into FROM/WHERE fragments over the relationship
tables, anchored at the two endpoint entity aliases.

Instance-level paths must be *simple*: the generated WHERE includes
``<>`` conditions between every two same-typed node positions so chain
walks cannot revisit an entity (e.g. ``P-encodes-D-encodes-P`` must bind
two distinct proteins).

:func:`chain_steps` is the one description of a chain's hops.  The SQL
text (:func:`chain_fragments`, the paper's SQL1 branches and SQL5) and
the walk that answers a pruned check online in its place both follow
it, so they cannot disagree on the chain.  The walk has two phases: a
forward semi-join reduction (:func:`chains_reach`) that can only answer
"no", then an exact, early-exit search for one witness pair
(:func:`chains_witness`) that enforces the ``<>`` conditions and the
exception pairs as the statement does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.biozon.schema import RELATIONSHIPS, RelationshipSpec
from repro.core.model import ClassSignature
from repro.errors import TopologyError
from repro.relational.column import is_ndarray, np, to_pylist
from repro.relational.database import Database

_BY_EDGE_TYPE: Dict[str, RelationshipSpec] = {spec.edge_type: spec for spec in RELATIONSHIPS}


@dataclass(frozen=True)
class ChainFragments:
    """FROM items and WHERE conditions realizing one path class."""

    from_items: Tuple[str, ...]   # e.g. ("UniEncodes c0r0", ...)
    conditions: Tuple[str, ...]   # join + simplicity conditions

    def from_sql(self) -> str:
        return ", ".join(self.from_items)

    def where_sql(self) -> str:
        return " AND ".join(self.conditions)


def orient_signature(
    signature: ClassSignature, end1_type: str, end2_type: str
) -> ClassSignature:
    """Return the signature oriented so it starts at ``end1_type`` and
    ends at ``end2_type`` (signatures are stored direction-normalized)."""
    if signature[0] == end1_type and signature[-1] == end2_type:
        return signature
    reversed_sig = signature[::-1]
    if reversed_sig[0] == end1_type and reversed_sig[-1] == end2_type:
        return reversed_sig
    raise TopologyError(
        f"signature {signature} does not connect {end1_type} and {end2_type}"
    )


def _edge_columns(edge_type: str, from_type: str, to_type: str) -> Tuple[str, str, str]:
    """(relationship table, column on ``from_type`` side, column on
    ``to_type`` side)."""
    spec = _BY_EDGE_TYPE.get(edge_type)
    if spec is None:
        raise TopologyError(f"unknown relationship {edge_type!r}")
    if spec.left_table == from_type and spec.right_table == to_type:
        return spec.table, spec.left_column, spec.right_column
    if spec.right_table == from_type and spec.left_table == to_type:
        return spec.table, spec.right_column, spec.left_column
    raise TopologyError(
        f"relationship {edge_type!r} does not connect {from_type!r} and {to_type!r}"
    )


def chain_steps(signature: ClassSignature) -> Tuple[Tuple[str, str, str], ...]:
    """The hops of one oriented signature, first endpoint to last: per
    hop the relationship table, its column on the side walked from and
    its column on the side walked to."""
    node_types = signature[0::2]
    return tuple(
        _edge_columns(edge_type, node_types[i], node_types[i + 1])
        for i, edge_type in enumerate(signature[1::2])
    )


def chain_fragments(
    signature: ClassSignature,
    end1_alias: str,
    end2_alias: str,
    chain_prefix: str,
) -> ChainFragments:
    """Build the join chain for one oriented signature.

    ``end1_alias`` / ``end2_alias`` are entity-table aliases the caller
    provides elsewhere in the query (e.g. ``P`` and ``D``); relationship
    tables get aliases ``{chain_prefix}r{i}``.
    """
    node_types = signature[0::2]
    from_items: List[str] = []
    conditions: List[str] = []

    # node_exprs[i]: SQL expression for the id of the i-th node.
    node_exprs: List[str] = [f"{end1_alias}.ID"]
    prev_expr = f"{end1_alias}.ID"
    for i, (table, from_col, to_col) in enumerate(chain_steps(signature)):
        alias = f"{chain_prefix}r{i}"
        from_items.append(f"{table} {alias}")
        conditions.append(f"{alias}.{from_col} = {prev_expr}")
        prev_expr = f"{alias}.{to_col}"
        node_exprs.append(prev_expr)
    conditions.append(f"{end2_alias}.ID = {prev_expr}")
    node_exprs[-1] = f"{end2_alias}.ID"

    # Simplicity: same-typed nodes must bind distinct entities.
    for i in range(len(node_types)):
        for j in range(i + 1, len(node_types)):
            if node_types[i] == node_types[j]:
                conditions.append(f"{node_exprs[i]} <> {node_exprs[j]}")
    return ChainFragments(tuple(from_items), tuple(conditions))


def multi_chain_fragments(
    signatures: Sequence[ClassSignature],
    end1_type: str,
    end2_type: str,
    end1_alias: str,
    end2_alias: str,
) -> ChainFragments:
    """Fragments asserting that *every* given class has an instance path
    between the two endpoints — the path condition of a (possibly
    multi-class) pruned topology."""
    from_items: List[str] = []
    conditions: List[str] = []
    for idx, signature in enumerate(sorted(signatures)):
        oriented = orient_signature(signature, end1_type, end2_type)
        chain = chain_fragments(oriented, end1_alias, end2_alias, f"c{idx}")
        from_items.extend(chain.from_items)
        conditions.extend(chain.conditions)
    return ChainFragments(tuple(from_items), tuple(conditions))


# ----------------------------------------------------------------------
# The walk over the same chains: a forward semi-join reduction, then an
# exact, early-exit witness search
# ----------------------------------------------------------------------
# An id set is a numpy integer array where the id columns are numeric
# and numpy is present, a Python set otherwise (string ids, NULLs, the
# no-numpy leg); both legs compute the same sets.
def _as_set(ids: Any) -> Any:
    return set(ids.tolist()) if is_ndarray(ids) else ids


def _int_array(ids: Any) -> bool:
    return is_ndarray(ids) and ids.dtype.kind == "i"


class _Hop:
    """One hop of a chain: the relationship table's hash index on the
    from-side column and the to-side column.  Both phases of the walk
    expand ids through it — the reduction by the index's
    :class:`CsrKeys` view when ids and columns are int arrays (``csr``
    is None where the columns cannot take it), otherwise, like the
    witness search, by its dict of buckets.  NULL never joins."""

    __slots__ = ("csr", "to_array", "buckets", "to_values")

    def __init__(self, database: Database, step: Tuple[str, str, str]) -> None:
        table_name, from_column, to_column = step
        table = database.table(table_name)
        index = table.hash_index_on([from_column])
        if index is None:
            raise TopologyError(f"{table_name}.{from_column} has no hash index")
        to_at = table.schema.column_position(to_column)
        self.buckets = index.buckets()
        self.to_values = table.store.columns[to_at]
        self.to_array = table.store.array(to_at)
        self.csr = index.key_arrays() if _int_array(self.to_array) else None

    def values(self, value: Any) -> List[Any]:
        """The to-side ids of the rows whose from-side id is ``value``."""
        bucket = self.buckets.get(value) if value is not None else None
        if not bucket:
            return []
        to_values = self.to_values
        return [to_values[p] for p in bucket if to_values[p] is not None]


def _hop(database: Database, step: Tuple[str, str, str], ids: Any) -> Any:
    """Ids reached over one hop, duplicates dropped: the to-side values
    of the rows whose from-side value is in ``ids``."""
    hop = _Hop(database, step)
    if hop.csr is not None and _int_array(ids):
        return np.unique(hop.to_array[hop.csr.probe(ids)[1]])
    return {to for value in _as_set(ids) for to in hop.values(value)}


def _intersect(ids: Any, other: Any) -> Any:
    if is_ndarray(ids) and is_ndarray(other):
        return ids[np.isin(ids, other)]
    return _as_set(ids) & _as_set(other)


def chain_reach(database: Database, signature: ClassSignature, start_ids: Any) -> Any:
    """Ids at the far end of one oriented signature's chain that a walk
    from ``start_ids`` reaches, revisits allowed (a superset of what the
    chain's SQL, with its ``<>`` conditions, can bind)."""
    ids = start_ids
    for step in chain_steps(signature):
        ids = _hop(database, step, ids)
    return ids


def chains_reach(
    signatures: Sequence[ClassSignature],
    end1_type: str,
    end2_type: str,
    end2_ids: Any,
    reach: Callable[[ClassSignature], Any],
) -> Any:
    """The walk's first phase, a forward semi-join reduction: the
    ``end2_ids`` every class's chain reaches from the first endpoint's
    ids.  ``reach`` answers an oriented signature's reach from those
    ids: :func:`chain_reach`, or a caller's shared copy of its answer.

    Empty means the path condition of :func:`multi_chain_fragments`
    holds for no pair from the first endpoint's ids x ``end2_ids``.
    Otherwise it promises nothing: the ``<>`` simplicity conditions and
    the requirement that all classes connect the *same* pair are left
    to :func:`chains_witness`.
    """
    reached = end2_ids
    for signature in signatures:
        oriented = orient_signature(signature, end1_type, end2_type)
        reached = _intersect(reached, reach(oriented))
        if len(reached) == 0:
            break
    return reached


def chains_witness(
    database: Database,
    signatures: Sequence[ClassSignature],
    end1_type: str,
    end2_type: str,
    end1_ids: Any,
    ends: Any,
    excluded: Tuple[Any, Any],
) -> bool:
    """The walk's second phase: does some pair from ``end1_ids`` x
    ``ends`` satisfy the path condition of :func:`multi_chain_fragments`
    — every class has an instance path between the two that binds
    same-typed positions to distinct ids — without being one of the
    ``excluded`` pairs?

    ``ends`` is the first phase's answer (:func:`chains_reach`; no other
    end can have a witness) and ``excluded`` two parallel sequences, the
    end1 and end2 ids of the pairs to leave out.  The search takes one
    end1 id at a time, walks every chain from it depth first with the id
    at each position (:func:`_chain_ends`), and stops at the first id
    that has a pair left.
    """
    chains = []
    for signature in signatures:
        oriented = orient_signature(signature, end1_type, end2_type)
        node_types = oriented[0::2]
        hops = tuple(_Hop(database, step) for step in chain_steps(oriented))
        # earlier[j]: the positions before j that must differ from it.
        earlier = tuple(
            tuple(i for i in range(j) if node_types[i] == node_types[j])
            for j in range(len(node_types))
        )
        chains.append((hops, earlier))
    ends = _as_set(ends)
    excluded_pairs = None
    for start in _as_set(end1_ids):
        reached = ends
        for hops, earlier in chains:
            reached = _chain_ends(hops, earlier, start, reached)
            if not reached:
                break
        if reached:
            if excluded_pairs is None:
                excluded_pairs = set(zip(to_pylist(excluded[0]), to_pylist(excluded[1])))
            if any((start, end) not in excluded_pairs for end in reached):
                return True
    return False


def _chain_ends(hops, earlier, start: Any, ends: set) -> set:
    """The ``ends`` a chain instance from ``start`` reaches, walked
    depth first with the id at every position."""
    found = set()
    path = [start]

    def walk() -> None:
        depth = len(path)
        last = depth == len(hops)
        for to in hops[depth - 1].values(path[-1]):
            if any(path[i] == to for i in earlier[depth]):
                continue
            if last:
                if to in ends:
                    found.add(to)
            else:
                path.append(to)
                walk()
                path.pop()

    walk()
    return found
