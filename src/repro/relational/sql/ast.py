"""SQL abstract syntax.

Scalar expressions reuse the runtime :mod:`repro.relational.expressions`
classes directly (the parser builds them); only the constructs that the
planner must transform get dedicated AST nodes here: SELECT cores,
queries, and (correlated) EXISTS placeholders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Union

from repro.relational.expressions import ColumnKey, Expression, Param


@dataclass
class SelectItem:
    """One SELECT-list entry: an expression with an optional output
    alias; ``star=True`` means ``*`` (expanded by the planner)."""

    expr: Optional[Expression]
    alias: Optional[str] = None
    star: bool = False


@dataclass
class TableRef:
    """A FROM-list entry: table name plus alias (defaults to the name)."""

    table: str
    alias: str


@dataclass
class SelectCore:
    """One SELECT ... FROM ... WHERE ... block (no set ops / ordering)."""

    distinct: bool
    items: List[SelectItem]
    tables: List[TableRef]
    where: Optional[Expression]


@dataclass
class OrderItem:
    expr: Expression
    descending: bool


@dataclass
class Query:
    """A full statement: one or more cores combined with UNION [ALL],
    plus optional ORDER BY and FETCH FIRST k ROWS ONLY (``k`` a count
    or a :class:`~repro.relational.expressions.Param`)."""

    cores: List[SelectCore]
    union_all: bool = False
    order_by: List[OrderItem] = field(default_factory=list)
    fetch_first: Union[int, Param, None] = None


class ExistsExpr(Expression):
    """Placeholder for [NOT] EXISTS (subquery) inside a WHERE tree.

    Never bound directly: the planner decorrelates it into a hash
    semi/anti join (or evaluates it once when uncorrelated).  ``bind``
    therefore raises — reaching it means a planner bug.
    """

    def __init__(self, subquery: SelectCore, negated: bool) -> None:
        self.subquery = subquery
        self.negated = negated

    def bind(self, layout):  # pragma: no cover - defensive
        raise NotImplementedError(
            "EXISTS must be planned (decorrelated), not bound directly"
        )

    def column_refs(self) -> Set[ColumnKey]:
        # Refs inside the subquery are scoped there; for outer-tree
        # analysis an EXISTS contributes nothing directly.
        return set()

    def __repr__(self) -> str:
        return f"ExistsExpr(negated={self.negated})"
