"""Logical representation of a select-project-join block.

The optimizer works on one SPJ block at a time: a set of base relations
(each with its local predicates already pushed down) plus the join
conjuncts connecting them.  DISTINCT / ORDER BY / FETCH FIRST live above
the block and are handled by the planner, which may exploit a block
output order (an "interesting order", Section 5.4.1) to avoid sorting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import OptimizerError
from repro.relational.expressions import (
    ColumnRef,
    Expression,
    as_equijoin,
    referenced_aliases,
    split_conjuncts,
)


@dataclass
class BaseRelation:
    """One FROM-list entry: a stored table under an alias, with the local
    (single-relation) predicates that apply to it, the columns the
    statement reads from it — what its scan emits — and those of them
    still read once the local predicates are applied — what its access
    path hands on (``None``: all columns, both times)."""

    table: str
    alias: str
    local_predicates: List[Expression] = field(default_factory=list)
    columns: Optional[Tuple[str, ...]] = None
    carried: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        self.alias = self.alias.lower()


@dataclass
class SPJBlock:
    """A join block: relations + cross-relation conjuncts."""

    relations: List[BaseRelation]
    join_conjuncts: List[Expression] = field(default_factory=list)

    def __post_init__(self) -> None:
        aliases = [r.alias for r in self.relations]
        if len(set(aliases)) != len(aliases):
            raise OptimizerError(f"duplicate aliases in block: {aliases}")

    @property
    def aliases(self) -> List[str]:
        return [r.alias for r in self.relations]

    def relation(self, alias: str) -> BaseRelation:
        for rel in self.relations:
            if rel.alias == alias.lower():
                return rel
        raise OptimizerError(f"unknown alias {alias!r}")

    def alias_tables(self) -> Dict[str, str]:
        return {r.alias: r.table for r in self.relations}


def build_block(
    relations: Sequence[Tuple[str, str]],
    where_conjuncts: Sequence[Expression],
    read_above: Optional[Iterable[Tuple[Optional[str], str]]] = None,
) -> SPJBlock:
    """Distribute WHERE conjuncts over a FROM list.

    A conjunct referencing a single alias (or no alias — unqualified
    references are treated as single-relation only when exactly one
    relation could own them, which the binder guarantees) becomes a
    local predicate; conjuncts spanning two or more aliases become join
    conjuncts.

    ``read_above`` lists the (alias, column) references of everything
    evaluated over the block's output (select list, EXISTS correlations,
    ORDER BY).  When given, each relation records the columns the
    statement reads from it: ``carried`` — those, plus the ones the join
    conjuncts name — and ``columns`` — ``carried`` plus the ones only
    its local predicates name.  Left out, every relation keeps all its
    columns.
    """
    base = [BaseRelation(table=t, alias=a) for t, a in relations]
    by_alias = {r.alias: r for r in base}
    block = SPJBlock(relations=base)
    for conjunct in where_conjuncts:
        aliases = referenced_aliases(conjunct)
        if len(aliases) == 1:
            alias = next(iter(aliases))
            if alias not in by_alias:
                raise OptimizerError(f"conjunct references unknown alias {alias!r}")
            by_alias[alias].local_predicates.append(conjunct)
        elif len(aliases) == 0:
            # Constant predicate; attach to the first relation (it will
            # be evaluated once per row, semantically equivalent).
            base[0].local_predicates.append(conjunct)
        else:
            block.join_conjuncts.append(conjunct)
    if read_above is not None:
        _record_columns(block, read_above)
    return block


def _record_columns(
    block: SPJBlock, read_above: Iterable[Tuple[Optional[str], str]]
) -> None:
    def by_alias(refs: Iterable[Tuple[Optional[str], str]]) -> Dict[Optional[str], Set[str]]:
        names: Dict[Optional[str], Set[str]] = {}
        for qualifier, name in refs:
            names.setdefault(qualifier, set()).add(name.lower())
        return names

    carried = by_alias(
        [*read_above, *(ref for c in block.join_conjuncts for ref in c.column_refs())]
    )
    local = {
        rel.alias: by_alias(ref for p in rel.local_predicates for ref in p.column_refs())
        for rel in block.relations
    }
    if None in carried or any(None in names for names in local.values()):
        return  # an unqualified reference could be anyone's: keep everything
    for rel in block.relations:
        kept = carried.get(rel.alias, set())
        rel.carried = tuple(sorted(kept))
        rel.columns = tuple(sorted(kept | local[rel.alias].get(rel.alias, set())))


@dataclass(frozen=True)
class EquiJoinEdge:
    """An equi-join conjunct viewed as an edge of the join graph."""

    left_alias: str
    left_column: str
    right_alias: str
    right_column: str
    conjunct: Expression


def equi_edges(block: SPJBlock) -> List[EquiJoinEdge]:
    """Extract the equi-join edges from a block's join conjuncts."""
    edges: List[EquiJoinEdge] = []
    for conjunct in block.join_conjuncts:
        pair = as_equijoin(conjunct)
        if pair is None:
            continue
        left, right = pair
        edges.append(
            EquiJoinEdge(
                left_alias=left.qualifier,
                left_column=left.name,
                right_alias=right.qualifier,
                right_column=right.name,
                conjunct=conjunct,
            )
        )
    return edges
