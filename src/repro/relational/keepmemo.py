"""Keep flags memoised per table version and conjunct.

A selection over an entity table is a conjunction of a few predicates
drawn from a small vocabulary (a keyword, a DNA type), and every
statement that constrains the table asks for the same ones again.  The
WHERE outcome of one conjunct over every row of a table depends on the
table's data and the conjunct alone, so it is computed once per table
version and kept in a bounded memo that every reader shares:

* a :class:`~repro.relational.operators.Filter` directly over a
  base-table :class:`~repro.relational.operators.SeqScan` ANDs the flags
  of its memoised conjuncts for each batch's rows (the scan still runs
  and charges what it always charged);
* :class:`~repro.core.methods.pruned.Endpoints` builds a query's
  endpoint selection from the same flags.

The memo is one :class:`~repro.cache.LRUCache` per database
(:attr:`~repro.relational.database.Database.keep_memo`, capacity
:data:`~repro.relational.database.KEEP_MEMO_SIZE`), so a rebuild over a
fresh database starts cold.  An entry is keyed by a weak reference to
the table and the conjunct's :func:`conjunct_key`, and stamped with the
table's ``data_version``: an insert retires every entry made before it,
and a table dropped and created again under the same name is another
object, so another key.  The weak reference keeps a dropped table's
rows from living on in the memo.  The row engine never reads the memo;
it evaluates predicates row by row and stays the oracle the columnar
engine is checked against.
"""

from __future__ import annotations

import weakref
from functools import reduce
from typing import Any, Hashable, List, Optional, Sequence, Tuple

from repro.cache import MISSING
from repro.relational.column import HAVE_NUMPY, ColumnValues, is_ndarray, np
from repro.relational.expressions import (
    And,
    ColumnRef,
    Comparison,
    Contains,
    Expression,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
)
from repro.relational.operators.scan import table_batch, table_layout
from repro.relational.table import Table

Keyed = List[Tuple[Expression, Hashable]]

_LITERAL_TYPES = (str, int, float, bool, type(None))


class _Unkeyable(Exception):
    """A node the memo does not hold (see :func:`conjunct_key`)."""


def _value_key(value: Any) -> Tuple[str, str]:
    # The type tells 1 from True from 1.0, and repr tells -0.0 from 0.0
    # (CONTAINS reads str(value)), where == would not.
    if type(value) not in _LITERAL_TYPES:
        raise _Unkeyable
    return type(value).__name__, repr(value)


def _node_key(node: Expression) -> Hashable:
    if isinstance(node, ColumnRef):
        return ("col", node.name)
    if isinstance(node, Literal):
        return ("lit",) + _value_key(node.value)
    if isinstance(node, Comparison):
        return ("cmp", node.op, _node_key(node.left), _node_key(node.right))
    if isinstance(node, (And, Or)):
        return (type(node).__name__, tuple(_node_key(item) for item in node.items))
    if isinstance(node, Not):
        return ("not", _node_key(node.item))
    if isinstance(node, Contains):
        return ("contains", _node_key(node.haystack), _node_key(node.needle))
    if isinstance(node, Like):
        return ("like", _node_key(node.value), node.pattern, node.negated)
    if isinstance(node, InList):
        options = frozenset(_value_key(option) for option in node.options)
        return ("in", _node_key(node.value), options, node.negated)
    if isinstance(node, IsNull):
        return ("isnull", _node_key(node.value), node.negated)
    # Arithmetic can raise part-way through a table, and a subquery
    # reads beyond its row: both are evaluated where they stand.
    raise _Unkeyable


def _is_key_equality(conjunct: Expression, table: Table) -> bool:
    """``pk = literal`` (either side): its flags hold at most one True,
    and a point workload would fill the memo with single-use entries."""
    key = table.schema.primary_key
    if key is None or not isinstance(conjunct, Comparison) or conjunct.op != "=":
        return False
    sides = (conjunct.left, conjunct.right)
    return any(
        isinstance(column, ColumnRef)
        and column.name == key.lower()
        and isinstance(other, Literal)
        for column, other in (sides, sides[::-1])
    )


def conjunct_key(conjunct: Expression, table: Table) -> Optional[Hashable]:
    """The memo key of one bound conjunct over ``table``: its structure
    and literals, every column named without its alias.  None for a
    conjunct the memo does not hold: one that reads no column, an
    equality on the primary key, or one with arithmetic or a subquery
    in it."""
    if not conjunct.column_refs() or _is_key_equality(conjunct, table):
        return None
    try:
        return _node_key(conjunct)
    except _Unkeyable:
        return None


def split_memoised(
    table: Table, conjuncts: Sequence[Expression]
) -> Tuple[Keyed, List[Expression]]:
    """``conjuncts`` split into the memoised ones, each with its key,
    and the rest."""
    keyed: Keyed = []
    rest: List[Expression] = []
    for conjunct in conjuncts:
        key = conjunct_key(conjunct, table)
        if key is None:
            rest.append(conjunct)
        else:
            keyed.append((conjunct, key))
    return keyed, rest


def and_keep(left: ColumnValues, right: ColumnValues) -> ColumnValues:
    """Row-wise AND of two keep-flag vectors of one length."""
    if is_ndarray(left) or is_ndarray(right):
        return np.logical_and(left, right)
    return [x and y for x, y in zip(left, right)]


def every_row(length: int) -> ColumnValues:
    """Keep flags that keep all ``length`` rows."""
    return np.ones(length, dtype=bool) if HAVE_NUMPY else [True] * length


def count_kept(keep: ColumnValues) -> int:
    return int(keep.sum()) if is_ndarray(keep) else sum(keep)


def _frozen(keep: ColumnValues) -> ColumnValues:
    """A read-only bool array, or a tuple without numpy.  Always a copy:
    as_keep() can hand back a bool column of the table itself."""
    if not HAVE_NUMPY:
        return tuple(keep)
    frozen = np.array(keep, dtype=bool)
    frozen.flags.writeable = False
    return frozen


def memo_flags(table: Table, alias: str, keyed: Keyed) -> ColumnValues:
    """The AND of the memoised conjuncts' keep flags over every row of
    ``table`` (unknown is not kept, as in WHERE); ``alias`` is the one
    their columns are qualified with.  A conjunct missing from the
    table's memo is evaluated over the whole table and put there."""
    memo = table.keep_memo
    ref = weakref.ref(table)
    stamp = table.data_version
    flags: List[ColumnValues] = []
    for conjunct, key in keyed:
        entry = MISSING if memo is None else memo.get((ref, key), MISSING, stamp)
        if entry is MISSING:
            evaluate = conjunct.bind_batch(table_layout(table, alias))
            entry = _frozen(evaluate(table_batch(table)).as_keep())
            if memo is not None:
                memo.put((ref, key), entry, stamp)
        flags.append(entry)
    return reduce(and_keep, flags)
