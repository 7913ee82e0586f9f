"""Seeded random workload generator for differential testing.

Generates schemas, data, expression trees, and SQL statements from an
explicit ``random.Random`` so every workload is reproducible from its
integer seed.  Two deliberate restrictions keep the row and columnar
engines *exactly* comparable (they are the documented divergence points
of the batch evaluator, see ``repro.relational.expressions``):

* **No possibly-zero divisors.**  Division only ever uses a non-zero
  integer literal as the divisor.  Both engines raise
  ``ZeroDivisionError`` on a zero divisor, but the batch engine raises
  while evaluating a whole batch where the row engine raises at the
  individual row — the error surfaces identically, yet any rows the row
  engine would have produced *before* the bad row are lost in the batch
  engine, so error-path outputs are not comparable row-for-row.

* **Bounded integers.**  Data integers stay within ±10 000 and literal
  operands within ±100, so arithmetic at the generated nesting depth
  stays far below 2^63: numpy's int64 would silently wrap where Python
  promotes to arbitrary precision.

Floats are unrestricted beyond being finite: IEEE-754 double arithmetic
is performed element-wise in the same order by both engines, so results
are bit-identical, not merely approximately equal.

:func:`gen_queries` can also emit each statement with its literals as
``:pN`` parameters plus the binding that reproduces it — the same draws,
so the parameterised statement and its literal twin are one query.  A
LIKE pattern stays literal (the grammar takes a string there), and so
does a negative number: its text is ``-`` applied to a literal, which
the estimator reads as an expression rather than a constant.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import (
    RANKING_SCHEMES,
    AttributeConstraint,
    ConjunctionConstraint,
    Constraint,
    KeywordConstraint,
    NoConstraint,
    TopologyQuery,
)
from repro.relational import Column, Database, DataType, TableSchema
from repro.relational.expressions import (
    And,
    Arith,
    ColumnRef,
    Comparison,
    Contains,
    Expression,
    InList,
    IsNull,
    Like,
    Literal,
    Neg,
    Not,
    Or,
)

WORDS = (
    "human", "mouse", "kinase", "binding", "membrane", "nuclear",
    "transcription", "receptor", "putative", "conserved", "domain",
    "signal", "transport", "repair", "ribosomal",
)

INT_LO, INT_HI = -10_000, 10_000
LIT_LO, LIT_HI = -100, 100
NULL_PROB = 0.15
LINK_VALUES = 12  # distinct non-NULL values of the nullable LINK join column

#: column metadata the expression generator works from:
#: (alias, column name, DataType, nullable)
ColumnInfo = Tuple[str, str, DataType, bool]


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


# ----------------------------------------------------------------------
# Schemas and data
# ----------------------------------------------------------------------
def _gen_value(rng: random.Random, dtype: DataType, nullable: bool):
    if nullable and rng.random() < NULL_PROB:
        return None
    if dtype is DataType.INT:
        return rng.randint(INT_LO, INT_HI)
    if dtype is DataType.FLOAT:
        return rng.uniform(-1000.0, 1000.0)
    if dtype is DataType.BOOL:
        return rng.random() < 0.5
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 4)))


def gen_database(
    rng: random.Random,
    n_tables: int = 2,
    rows_per_table: Optional[int] = None,
) -> Tuple[Database, Dict[str, List[ColumnInfo]]]:
    """A random database plus, per table, the column metadata the
    expression/query generators consume.

    Every table gets an ``ID`` primary key; tables after the first get a
    ``REF`` column drawn from the first table's ID range so equi-joins
    have realistic selectivity.  Every table also gets a *nullable*
    ``LINK`` column over a dozen values, usually hash-indexed: a
    many-to-many join column on which NULL meets NULL, so a join that
    pairs them shows up as a difference between join methods.
    Secondary hash/sorted indexes are rolled randomly so the optimizer
    can pick index scans and index-nested-loop joins, not just heap
    scans.
    """
    db = Database("difftest")
    tables: Dict[str, List[ColumnInfo]] = {}
    first_rows = rows_per_table if rows_per_table is not None else rng.randint(40, 120)
    dtypes = (DataType.INT, DataType.FLOAT, DataType.BOOL, DataType.TEXT)
    for t in range(n_tables):
        name = f"t{t}"
        columns = [Column("ID", DataType.INT, True)]
        if t > 0:
            columns.append(Column("REF", DataType.INT, True))
        columns.append(Column("LINK", DataType.INT, False))
        for c in range(rng.randint(2, 4)):
            columns.append(
                Column(f"C{c}", rng.choice(dtypes), rng.random() < 0.5)
            )
        schema = TableSchema(name, columns, primary_key="ID")
        table = db.create_table(schema)

        n_rows = rows_per_table if rows_per_table is not None else rng.randint(40, 120)
        ids = list(range(n_rows))
        rng.shuffle(ids)
        for rid in ids:
            row = [rid]
            if t > 0:
                row.append(rng.randrange(max(first_rows, 1)))
            row.append(None if rng.random() < NULL_PROB else rng.randrange(LINK_VALUES))
            for col in columns[len(row):]:
                row.append(_gen_value(rng, col.dtype, not col.not_null))
            table.insert(tuple(row))

        if rng.random() < 0.7:
            table.create_hash_index(f"hx_{name}_link", ["LINK"])
        # Random secondary indexes over non-null scalar columns.
        for col in columns[1:]:
            if col.not_null and col.dtype is DataType.INT and rng.random() < 0.5:
                table.create_hash_index(f"hx_{name}_{col.name.lower()}", [col.name])
            if (
                col.not_null
                and col.dtype in (DataType.INT, DataType.FLOAT)
                and rng.random() < 0.3
            ):
                table.create_sorted_index(f"sx_{name}_{col.name.lower()}", col.name)

        tables[name] = [
            (name, col.name.lower(), col.dtype, not col.not_null)
            for col in columns
        ]
    return db, tables


# ----------------------------------------------------------------------
# Expression trees (for direct operator-level differential tests)
# ----------------------------------------------------------------------
def _gen_scalar(
    rng: random.Random, cols: Sequence[ColumnInfo], depth: int
) -> Tuple[Expression, DataType]:
    """A numeric-valued expression (column, literal, or arithmetic)."""
    numeric = [c for c in cols if c[2] in (DataType.INT, DataType.FLOAT)]
    roll = rng.random()
    if depth <= 0 or not numeric or roll < 0.35:
        if numeric and roll < 0.6:
            alias, name, dtype, _ = rng.choice(numeric)
            return ColumnRef(alias, name), dtype
        if rng.random() < 0.5:
            return Literal(rng.randint(LIT_LO, LIT_HI)), DataType.INT
        return Literal(round(rng.uniform(-100.0, 100.0), 3)), DataType.FLOAT
    if roll < 0.45:
        inner, dtype = _gen_scalar(rng, cols, depth - 1)
        return Neg(inner), dtype
    op = rng.choice(("+", "-", "*", "/"))
    left, ldt = _gen_scalar(rng, cols, depth - 1)
    if op == "/":
        # Non-zero literal divisor only (see module docstring).
        divisor = rng.choice([d for d in range(-9, 10) if d != 0])
        return Arith(op, left, Literal(divisor)), DataType.FLOAT
    right, rdt = _gen_scalar(rng, cols, depth - 1)
    out = DataType.FLOAT if DataType.FLOAT in (ldt, rdt) else DataType.INT
    return Arith(op, left, right), out


def _gen_leaf(rng: random.Random, cols: Sequence[ColumnInfo]) -> Expression:
    texts = [c for c in cols if c[2] is DataType.TEXT]
    bools = [c for c in cols if c[2] is DataType.BOOL]
    roll = rng.random()
    if texts and roll < 0.2:
        alias, name, _, _ = rng.choice(texts)
        word = rng.choice(WORDS)
        if rng.random() < 0.5:
            return Contains(ColumnRef(alias, name), Literal(word))
        pattern = rng.choice((f"%{word}%", f"{word}%", f"%{word}"))
        return Like(ColumnRef(alias, name), pattern, rng.random() < 0.3)
    if roll < 0.3:
        alias, name, _, _ = rng.choice(list(cols))
        return IsNull(ColumnRef(alias, name), negated=rng.random() < 0.5)
    if roll < 0.42:
        alias, name, dtype, _ = rng.choice(list(cols))
        options = [
            _gen_value(rng, dtype, False) for _ in range(rng.randint(1, 4))
        ]
        return InList(ColumnRef(alias, name), options, rng.random() < 0.3)
    if bools and roll < 0.5:
        alias, name, _, _ = rng.choice(bools)
        ref: Expression = ColumnRef(alias, name)
        return ref if rng.random() < 0.5 else Not(ref)
    op = rng.choice(("=", "<>", "<", "<=", ">", ">="))
    if rng.random() < 0.25:
        # Column-to-column, possibly cross-type (exercises coercion).
        (a1, n1, _, _), (a2, n2, _, _) = (
            rng.choice(list(cols)),
            rng.choice(list(cols)),
        )
        return Comparison(op, ColumnRef(a1, n1), ColumnRef(a2, n2))
    left, _ = _gen_scalar(rng, cols, rng.randint(0, 2))
    if rng.random() < 0.15:
        # Cross-type literal (string vs numeric) on purpose.
        right: Expression = Literal(rng.choice(WORDS))
    else:
        right, _ = _gen_scalar(rng, cols, rng.randint(0, 1))
    return Comparison(op, left, right)


def gen_expression(
    rng: random.Random, cols: Sequence[ColumnInfo], depth: int = 3
) -> Expression:
    """A random predicate over ``cols``, boolean combiners to ``depth``."""
    if depth <= 0 or rng.random() < 0.3:
        return _gen_leaf(rng, cols)
    roll = rng.random()
    if roll < 0.45:
        return And([gen_expression(rng, cols, depth - 1) for _ in range(rng.randint(2, 3))])
    if roll < 0.9:
        return Or([gen_expression(rng, cols, depth - 1) for _ in range(rng.randint(2, 3))])
    return Not(gen_expression(rng, cols, depth - 1))


# ----------------------------------------------------------------------
# SQL statements (for end-to-end Engine-level differential tests)
# ----------------------------------------------------------------------
Binding = Dict[str, object]


def _sql_literal(value, params: Optional[Binding] = None) -> str:
    """``value`` as SQL text — as the next ``:pN`` parameter of
    ``params`` when given one (see the module docstring)."""
    negative = isinstance(value, (int, float)) and not isinstance(value, bool) and value < 0
    if params is not None and not negative:
        name = f"p{len(params)}"
        params[name] = value
        return f":{name}"
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def _sql_scalar(
    rng: random.Random,
    cols: Sequence[ColumnInfo],
    depth: int,
    params: Optional[Binding] = None,
) -> str:
    numeric = [c for c in cols if c[2] in (DataType.INT, DataType.FLOAT)]
    if depth <= 0 or not numeric or rng.random() < 0.4:
        if numeric and rng.random() < 0.7:
            alias, name, _, _ = rng.choice(numeric)
            return f"{alias}.{name}"
        return _sql_literal(rng.randint(LIT_LO, LIT_HI), params)
    op = rng.choice(("+", "-", "*", "/"))
    left = _sql_scalar(rng, cols, depth - 1, params)
    if op == "/":
        divisor = rng.choice([d for d in range(-9, 10) if d != 0])
        return f"({left} / {divisor})"
    right = _sql_scalar(rng, cols, depth - 1, params)
    return f"({left} {op} {right})"


def _sql_leaf(
    rng: random.Random, cols: Sequence[ColumnInfo], params: Optional[Binding] = None
) -> str:
    texts = [c for c in cols if c[2] is DataType.TEXT]
    roll = rng.random()
    if texts and roll < 0.2:
        alias, name, _, _ = rng.choice(texts)
        word = rng.choice(WORDS)
        if rng.random() < 0.5:
            return f"CONTAINS({alias}.{name}, {_sql_literal(word, params)})"
        pattern = rng.choice((f"%{word}%", f"{word}%", f"%{word}"))
        neg = "NOT " if rng.random() < 0.3 else ""
        return f"{alias}.{name} {neg}LIKE {_sql_literal(pattern)}"
    if roll < 0.32:
        alias, name, _, _ = rng.choice(list(cols))
        neg = " NOT" if rng.random() < 0.5 else ""
        return f"{alias}.{name} IS{neg} NULL"
    if roll < 0.45:
        alias, name, dtype, _ = rng.choice(list(cols))
        values = [_gen_value(rng, dtype, False) for _ in range(rng.randint(1, 4))]
        # The parser's IN list takes plain literals (no unary minus).
        values = [abs(v) if isinstance(v, (int, float)) and not isinstance(v, bool) else v
                  for v in values]
        options = ", ".join(_sql_literal(v, params) for v in values)
        neg = "NOT " if rng.random() < 0.3 else ""
        return f"{alias}.{name} {neg}IN ({options})"
    op = rng.choice(("=", "<>", "<", "<=", ">", ">="))
    left = _sql_scalar(rng, cols, rng.randint(0, 2), params)
    right = _sql_scalar(rng, cols, rng.randint(0, 1), params)
    return f"{left} {op} {right}"


def _sql_predicate(
    rng: random.Random,
    cols: Sequence[ColumnInfo],
    depth: int,
    params: Optional[Binding] = None,
) -> str:
    if depth <= 0 or rng.random() < 0.35:
        return _sql_leaf(rng, cols, params)
    roll = rng.random()
    if roll < 0.45:
        parts = [_sql_predicate(rng, cols, depth - 1, params) for _ in range(2)]
        return "(" + " AND ".join(parts) + ")"
    if roll < 0.9:
        parts = [_sql_predicate(rng, cols, depth - 1, params) for _ in range(2)]
        return "(" + " OR ".join(parts) + ")"
    return "NOT (" + _sql_predicate(rng, cols, depth - 1, params) + ")"


def gen_queries(
    rng: random.Random,
    tables: Dict[str, List[ColumnInfo]],
    count: int = 6,
    bindings: Optional[List[Binding]] = None,
) -> List[str]:
    """Random SELECT statements over the generated tables.

    Mixes single-table scans, equi-joins on the generated REF -> ID
    relationship or on the nullable many-to-many LINK columns (plus a
    random residual predicate), DISTINCT, ORDER BY, and FETCH FIRST —
    enough surface to reach every batch operator through the real
    planner.  Given a ``bindings`` list, each statement comes out
    parameterised and its binding is appended to the list; the draws
    are the same either way.
    """
    names = sorted(tables)
    queries: List[str] = []
    for _ in range(count):
        params: Optional[Binding] = None if bindings is None else {}
        join = len(names) > 1 and rng.random() < 0.5
        if join:
            t_outer = rng.choice(names[1:])  # has REF
            t_inner = names[0]
            cols = tables[t_outer] + tables[t_inner]
            from_clause = f"{t_outer}, {t_inner}"
            key = ("link", "link") if rng.random() < 0.4 else ("ref", "id")
            conds = [f"{t_outer}.{key[0]} = {t_inner}.{key[1]}"]
        else:
            t_outer = rng.choice(names)
            cols = tables[t_outer]
            from_clause = t_outer
            conds = []
        if rng.random() < 0.85:
            conds.append(_sql_predicate(rng, cols, rng.randint(1, 3), params))
        where = f" WHERE {' AND '.join(conds)}" if conds else ""

        if rng.random() < 0.3:
            select = "*"
            orderable = cols
        else:
            k = rng.randint(1, min(4, len(cols)))
            picked = rng.sample(cols, k)
            select = ", ".join(f"{a}.{n}" for a, n, _, _ in picked)
            orderable = picked  # ORDER BY must reference projected columns
        distinct = "DISTINCT " if rng.random() < 0.25 else ""

        order = ""
        if rng.random() < 0.6:
            alias, name, _, _ = rng.choice(orderable)
            direction = " DESC" if rng.random() < 0.4 else ""
            order = f" ORDER BY {alias}.{name}{direction}"
        fetch = ""
        if rng.random() < 0.4:
            fetch = f" FETCH FIRST {_sql_literal(rng.randint(1, 25), params)} ROWS ONLY"

        if params is not None:
            bindings.append(params)
        queries.append(
            f"SELECT {distinct}{select} FROM {from_clause}{where}{order}{fetch}"
        )
    return queries


# ----------------------------------------------------------------------
# Topology queries (for sharded-vs-unsharded differential tests)
# ----------------------------------------------------------------------
#: keyword vocabulary for constraint generation, split by the entity
#: types the biozon generator seeds keywords into (Protein/Interaction
#: DESC columns; see repro.biozon.generator).  Mixes the calibrated
#: selectivity-tier words with filler words that may match nothing —
#: empty answers are a legitimate differential case.
PROTEIN_WORDS = ("kinase", "binding", "human", "putative", "membrane", "zzz")
INTERACTION_WORDS = ("physical", "direct", "experimental", "conserved")
DNA_TYPES = ("mRNA", "genomic", "EST")


def _gen_constraint(rng: random.Random, entity: str) -> Constraint:
    """A random constraint valid for one biozon entity type."""
    roll = rng.random()
    if roll < 0.2:
        return NoConstraint()
    if entity == "DNA" and roll < 0.5:
        return AttributeConstraint("TYPE", rng.choice(DNA_TYPES))
    words = INTERACTION_WORDS if entity == "Interaction" else PROTEIN_WORDS
    if roll < 0.85:
        return KeywordConstraint("DESC", rng.choice(words))
    return ConjunctionConstraint(
        (
            KeywordConstraint("DESC", rng.choice(words)),
            KeywordConstraint("DESC", rng.choice(words)),
        )
    )


def gen_topology_queries(
    rng: random.Random,
    pairs: Sequence[Tuple[str, str]],
    count: int = 8,
    max_length: int = 3,
) -> List[TopologyQuery]:
    """Random :class:`TopologyQuery` objects over the built entity pairs.

    Roughly a quarter are exhaustive (``k=None`` — only the exhaustive
    methods accept these); the rest carry a small top-k cut-off and a
    random ranking scheme, so a sweep exercises both merge shapes of a
    scatter-gather coordinator plus the exhaustive-method-with-k edge
    (exhaustive methods rank-and-cut too when the query carries ``k``).
    """
    queries: List[TopologyQuery] = []
    for _ in range(count):
        entity1, entity2 = rng.choice(list(pairs))
        if rng.random() < 0.25:
            k, ranking = None, "freq"
        else:
            k, ranking = rng.randint(1, 8), rng.choice(RANKING_SCHEMES)
        queries.append(
            TopologyQuery(
                entity1,
                entity2,
                _gen_constraint(rng, entity1),
                _gen_constraint(rng, entity2),
                max_length=max_length,
                k=k,
                ranking=ranking,
            )
        )
    return queries
