"""Topology queries: Section 2.2's 2-queries.

A query is ``{(t1, con1), (t2, con2)}`` — two entity types with
constraints.  Constraints must render both as engine
:class:`~repro.relational.expressions.Expression` trees (for directly
constructed plans) and as SQL text fragments (for the methods that issue
SQL, matching the paper's SQL1–SQL5).  A fragment renders its values as
parameters of a :class:`~repro.relational.sql.tokens.SqlParams` when it
is given one — what the methods execute, so one statement text serves
every value — and as quoted literals otherwise (what ``describe()`` and
plan displays print).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.errors import TopologyError
from repro.relational.expressions import (
    And,
    ColumnRef,
    Comparison,
    Contains,
    Expression,
    Literal,
)
from repro.relational.sql.tokens import SqlParams, sql_value


class Constraint:
    """Base class for entity constraints."""

    def to_expression(self, alias: str) -> Expression:
        raise NotImplementedError

    def to_sql(self, alias: str, params: Optional[SqlParams] = None) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class KeywordConstraint(Constraint):
    """Keyword search on a text attribute — the paper's
    ``desc.ct('enzyme')`` clause."""

    column: str
    keyword: str

    def to_expression(self, alias: str) -> Expression:
        return Contains(ColumnRef(alias, self.column), Literal(self.keyword))

    def to_sql(self, alias: str, params: Optional[SqlParams] = None) -> str:
        return f"CONTAINS({alias}.{self.column}, {sql_value(self.keyword, params)})"


@dataclass(frozen=True)
class AttributeConstraint(Constraint):
    """Structured predicate, e.g. ``type = 'mRNA'``."""

    column: str
    value: Any
    op: str = "="

    def to_expression(self, alias: str) -> Expression:
        return Comparison(self.op, ColumnRef(alias, self.column), Literal(self.value))

    def to_sql(self, alias: str, params: Optional[SqlParams] = None) -> str:
        return f"{alias}.{self.column} {self.op} {sql_value(self.value, params)}"


@dataclass(frozen=True)
class ConjunctionConstraint(Constraint):
    """AND of several constraints on the same entity."""

    parts: Tuple[Constraint, ...]

    def to_expression(self, alias: str) -> Expression:
        return And([p.to_expression(alias) for p in self.parts])

    def to_sql(self, alias: str, params: Optional[SqlParams] = None) -> str:
        return " AND ".join(f"({p.to_sql(alias, params)})" for p in self.parts)


@dataclass(frozen=True)
class NoConstraint(Constraint):
    """Always-true constraint (select every entity of the type)."""

    def to_expression(self, alias: str) -> Expression:
        return Literal(True)

    def to_sql(self, alias: str, params: Optional[SqlParams] = None) -> str:
        return "1 = 1"


@dataclass(frozen=True)
class TopologyQuery:
    """A 2-query plus evaluation parameters.

    entity1 / entity2
        Entity-set (table) names, e.g. ``Protein`` and ``DNA``.
    constraint1 / constraint2
        The per-entity constraints.
    max_length
        The ``l`` of l-topologies (the paper uses 3 for most
        experiments, 4 in Section 6.2.3).
    k
        Top-k cut-off (None = return all topology results).
    ranking
        Name of the ranking scheme for top-k queries
        (``freq`` / ``rare`` / ``domain``, Section 6.1).
    """

    entity1: str
    entity2: str
    constraint1: Constraint
    constraint2: Constraint
    max_length: int = 3
    k: Optional[int] = None
    ranking: str = "freq"

    def __post_init__(self) -> None:
        if self.max_length < 1:
            raise TopologyError("max_length must be >= 1")
        if self.k is not None and self.k < 1:
            raise TopologyError("k must be >= 1 when given")

    @property
    def entity_pair(self) -> Tuple[str, str]:
        return (self.entity1, self.entity2)

    def describe(self) -> str:
        return (
            f"{{({self.entity1}, {self.constraint1.to_sql('t1')}), "
            f"({self.entity2}, {self.constraint2.to_sql('t2')})}} "
            f"l={self.max_length}"
            + (f" top-{self.k} by {self.ranking}" if self.k is not None else "")
        )
