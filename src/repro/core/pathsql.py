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

:func:`chain_steps` is the one description of a chain's hops; the SQL
text (:func:`chain_fragments`) and the forward semi-join reduction
(:func:`chain_reach`, :func:`chains_may_connect`) both walk it, so the statement and the
reducer that decides whether to issue it cannot disagree on the chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.biozon.schema import RELATIONSHIPS, RelationshipSpec
from repro.core.model import ClassSignature
from repro.errors import TopologyError
from repro.relational.column import is_ndarray, np
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
# Forward semi-join reduction over the same chains
# ----------------------------------------------------------------------
# An id set is a numpy integer array where the id columns are numeric
# and numpy is present, a Python set otherwise (string ids, NULLs, the
# no-numpy leg); both legs compute the same sets.
def _as_set(ids: Any) -> Any:
    return set(ids.tolist()) if is_ndarray(ids) else ids


def _hop(database: Database, step: Tuple[str, str, str], ids: Any) -> Any:
    """Ids reached over one hop: the to-side values of the rows whose
    from-side value is in ``ids``."""
    table_name, from_column, to_column = step
    table = database.table(table_name)
    from_at = table.schema.column_position(from_column)
    to_at = table.schema.column_position(to_column)
    if is_ndarray(ids):
        from_ids, to_ids = table.store.array(from_at), table.store.array(to_at)
        if from_ids is not None and to_ids is not None:
            return to_ids[np.isin(from_ids, ids)]
    members = _as_set(ids)
    columns = table.store.columns
    return {to for frm, to in zip(columns[from_at], columns[to_at]) if frm in members}


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


def chains_may_connect(
    database: Database,
    signatures: Sequence[ClassSignature],
    end1_type: str,
    end2_type: str,
    end1_ids: Any,
    end2_ids: Any,
) -> bool:
    """Can the path condition of :func:`multi_chain_fragments` hold for
    *some* pair from ``end1_ids`` x ``end2_ids``?

    Walks each class's chain forward from ``end1_ids``
    (:func:`chain_reach`) and keeps the ``end2_ids`` it reaches;
    ``False`` means some class reaches none of them, so no statement
    built from these fragments can return a row.  ``True`` promises
    nothing: the ``<>`` simplicity conditions, the requirement that all
    classes connect the *same* pair, and whatever else the statement
    adds (the ExcpTops anti-join) are left to the statement.
    """
    reached = end2_ids
    for signature in signatures:
        oriented = orient_signature(signature, end1_type, end2_type)
        reached = _intersect(reached, chain_reach(database, oriented, end1_ids))
        if len(reached) == 0:
            return False
    return True
