"""Scalar expressions and predicates over rows and column batches.

Expressions are immutable trees.  Before execution they are *bound*
against a :class:`RowLayout` (the qualified column list an operator
produces).  Binding comes in two flavors:

* :meth:`Expression.bind` yields a plain Python closure evaluated once
  per row — the retained reference row engine's hot loop.
* :meth:`Expression.bind_batch` yields a closure evaluated once per
  :class:`~repro.relational.column.Batch`, returning a
  :class:`BatchValues` vector — the columnar engine's hot loop.  Where
  both sides of a node are numpy-backed (or constants) the whole batch
  is computed by one vectorized numpy expression; otherwise the node
  falls back to an element-wise Python loop that replicates the row
  semantics exactly.

SQL three-valued logic is honoured identically on both paths:
comparisons against NULL evaluate to ``None`` ("unknown"), AND/OR/NOT
propagate unknowns per Kleene logic, and WHERE treats unknown as false.
The batch path leans on one invariant from the column store: a
numpy-backed batch column never contains NULLs, so vectorized boolean
results never contain unknowns and stay plain ``bool`` arrays.  Any
source of unknowns (NULL literals, incomparable operand types, list
columns with NULL entries) routes through the constant or list
representations, where ``None`` is representable.

The two paths are allowed to diverge only on *errors* in partial
expressions (e.g. division by zero aborts the batch rather than failing
at one row) — never on values.  ``tests/relational/
test_expression_masks.py`` property-checks the agreement.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SqlBindError, SqlSyntaxError
from repro.relational.column import Batch
from repro.relational.types import comparable

Row = Tuple[Any, ...]
RowFunc = Callable[[Row], Any]
BatchFunc = Callable[[Batch], "BatchValues"]
ColumnKey = Tuple[Optional[str], str]  # (qualifier or None, column name), lowercase


class RowLayout:
    """The qualified column list of an operator's output.

    Each entry is ``(alias, column_name)``; unqualified references
    resolve when exactly one entry matches the column name.
    """

    def __init__(self, entries: Sequence[Tuple[str, str]]) -> None:
        self.entries: Tuple[Tuple[str, str], ...] = tuple(
            (alias.lower(), name.lower()) for alias, name in entries
        )
        self._by_qualified: Dict[Tuple[str, str], int] = {}
        self._by_name: Dict[str, List[int]] = {}
        for i, (alias, name) in enumerate(self.entries):
            if (alias, name) in self._by_qualified:
                raise SqlBindError(f"duplicate column {alias}.{name} in row layout")
            self._by_qualified[(alias, name)] = i
            self._by_name.setdefault(name, []).append(i)

    @property
    def arity(self) -> int:
        return len(self.entries)

    def position(self, qualifier: Optional[str], name: str) -> int:
        name = name.lower()
        if qualifier is not None:
            key = (qualifier.lower(), name)
            if key not in self._by_qualified:
                raise SqlBindError(f"unknown column {qualifier}.{name}")
            return self._by_qualified[key]
        hits = self._by_name.get(name, [])
        if not hits:
            raise SqlBindError(f"unknown column {name}")
        if len(hits) > 1:
            raise SqlBindError(f"ambiguous column {name}")
        return hits[0]

    def has(self, qualifier: Optional[str], name: str) -> bool:
        try:
            self.position(qualifier, name)
            return True
        except SqlBindError:
            return False

    def concat(self, other: "RowLayout") -> "RowLayout":
        return RowLayout(list(self.entries) + list(other.entries))

    def aliases(self) -> Set[str]:
        return {alias for alias, _ in self.entries}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "RowLayout(" + ", ".join(f"{a}.{n}" for a, n in self.entries) + ")"


class BatchValues:
    """One expression result per batch row, in the cheapest faithful
    representation:

    * ``"np"`` — a numpy array (never contains NULL/unknown; boolean
      results have dtype bool);
    * ``"list"`` — a Python list of plain Python values, ``None`` for
      NULL/unknown;
    * ``"const"`` — one Python value broadcast over the batch (how NULL
      literals, uniformly-unknown comparisons, and short-circuited
      AND/OR legs stay O(1)).
    """

    __slots__ = ("kind", "data", "length")

    def __init__(self, kind: str, data: Any, length: int) -> None:
        self.kind = kind
        self.data = data
        self.length = length

    def pylist(self) -> list:
        """Materialize as a Python list of plain Python values."""
        if self.kind == "np":
            return self.data.tolist()
        if self.kind == "const":
            return [self.data] * self.length
        return self.data

    def as_keep(self):
        """Per-row keep flags under WHERE semantics (unknown → drop):
        a numpy bool array or a list of bools."""
        if self.kind == "np":
            if self.data.dtype.kind == "b":
                return self.data
            # Non-bool values are never `is True` under row semantics.
            return [False] * self.length
        if self.kind == "const":
            return [self.data is True] * self.length
        return [v is True for v in self.data]

    def as_column(self):
        """As a batch column (numpy array or list)."""
        if self.kind == "const":
            return [self.data] * self.length
        return self.data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchValues({self.kind}, n={self.length})"


def _is_bool_side(v: "BatchValues") -> bool:
    if v.kind == "np":
        return v.data.dtype.kind == "b"
    return isinstance(v.data, bool)


def _np_arith_operand(v: "BatchValues"):
    """Operand for vectorized arithmetic.  Python treats bools as ints
    in arithmetic; numpy raises on bool arrays for ``-``, so promote."""
    if v.kind == "np":
        return v.data.astype("int64") if v.data.dtype.kind == "b" else v.data
    return int(v.data) if isinstance(v.data, bool) else v.data


class Expression:
    """Base class.  Subclasses implement :meth:`bind`,
    :meth:`column_refs`, and (optionally) a vectorized
    :meth:`bind_batch` — the default batch binding falls back to the
    row closure applied element-wise, so row-only nodes stay correct."""

    def bind(self, layout: RowLayout) -> RowFunc:
        raise NotImplementedError

    def bind_batch(self, layout: RowLayout) -> BatchFunc:
        fn = self.bind(layout)

        def run(batch: Batch) -> BatchValues:
            return BatchValues("list", [fn(row) for row in batch.to_rows()], batch.length)

        return run

    def column_refs(self) -> Set[ColumnKey]:
        """All (qualifier, column) pairs referenced, lowercased."""
        raise NotImplementedError


class Literal(Expression):
    def __init__(self, value: Any) -> None:
        self.value = value

    def bind(self, layout: RowLayout) -> RowFunc:
        value = self.value
        return lambda row: value

    def bind_batch(self, layout: RowLayout) -> BatchFunc:
        value = self.value
        return lambda batch: BatchValues("const", value, batch.length)

    def column_refs(self) -> Set[ColumnKey]:
        return set()

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


class ColumnRef(Expression):
    def __init__(self, qualifier: Optional[str], name: str) -> None:
        self.qualifier = qualifier.lower() if qualifier else None
        self.name = name.lower()

    def bind(self, layout: RowLayout) -> RowFunc:
        pos = layout.position(self.qualifier, self.name)
        return lambda row: row[pos]

    def bind_batch(self, layout: RowLayout) -> BatchFunc:
        pos = layout.position(self.qualifier, self.name)

        def run(batch: Batch) -> BatchValues:
            column = batch.columns[pos]
            kind = "list" if isinstance(column, list) else "np"
            return BatchValues(kind, column, batch.length)

        return run

    def column_refs(self) -> Set[ColumnKey]:
        return {(self.qualifier, self.name)}

    def display(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name

    def __repr__(self) -> str:
        return f"ColumnRef({self.display()})"


_COMPARATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class Comparison(Expression):
    """Binary comparison with SQL NULL semantics (NULL -> unknown)."""

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op == "!=":
            op = "<>"
        if op not in _COMPARATORS:
            raise SqlBindError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def bind(self, layout: RowLayout) -> RowFunc:
        lf, rf = self.left.bind(layout), self.right.bind(layout)
        fn = _COMPARATORS[self.op]
        ordered = self.op in ("<", "<=", ">", ">=")

        def run(row: Row) -> Optional[bool]:
            a, b = lf(row), rf(row)
            if a is None or b is None:
                return None
            if ordered and not comparable(a, b):
                return None
            return fn(a, b)

        return run

    def bind_batch(self, layout: RowLayout) -> BatchFunc:
        lf, rf = self.left.bind_batch(layout), self.right.bind_batch(layout)
        fn = _COMPARATORS[self.op]
        op = self.op
        ordered = op in ("<", "<=", ">", ">=")

        def run(batch: Batch) -> BatchValues:
            a, b = lf(batch), rf(batch)
            n = batch.length
            if (a.kind == "const" and a.data is None) or (
                b.kind == "const" and b.data is None
            ):
                return BatchValues("const", None, n)
            if a.kind == "const" and b.kind == "const":
                if ordered and not comparable(a.data, b.data):
                    return BatchValues("const", None, n)
                return BatchValues("const", fn(a.data, b.data), n)
            if a.kind != "list" and b.kind != "list":
                # numpy array vs numpy array / non-NULL constant: neither
                # side can hold NULLs, so the result is a pure bool array
                # — unless the types are incomparable, which is uniform
                # across the batch (numpy-backed columns are homogeneous).
                for side in (a, b):
                    if side.kind == "const" and not isinstance(
                        side.data, (bool, int, float)
                    ):
                        # e.g. a string literal against a numeric column:
                        # Python cross-type equality is plain False.
                        if ordered:
                            return BatchValues("const", None, n)
                        return BatchValues("const", op == "<>", n)
                if ordered and _is_bool_side(a) != _is_bool_side(b):
                    return BatchValues("const", None, n)  # comparable() says no
                return BatchValues("np", fn(a.data, b.data), n)
            # Element-wise path, identical to the row engine.
            out: List[Optional[bool]] = []
            for x, y in zip(a.pylist(), b.pylist()):
                if x is None or y is None:
                    out.append(None)
                elif ordered and not comparable(x, y):
                    out.append(None)
                else:
                    out.append(fn(x, y))
            return BatchValues("list", out, n)

        return run

    def column_refs(self) -> Set[ColumnKey]:
        return self.left.column_refs() | self.right.column_refs()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class And(Expression):
    def __init__(self, items: Sequence[Expression]) -> None:
        self.items = list(items)

    def bind(self, layout: RowLayout) -> RowFunc:
        funcs = [item.bind(layout) for item in self.items]

        def run(row: Row) -> Optional[bool]:
            unknown = False
            for fn in funcs:
                v = fn(row)
                if v is False:
                    return False
                if v is None:
                    unknown = True
            return None if unknown else True

        return run

    def bind_batch(self, layout: RowLayout) -> BatchFunc:
        funcs = [item.bind_batch(layout) for item in self.items]

        def run(batch: Batch) -> BatchValues:
            n = batch.length
            arrays = []  # numpy bool legs: True / False, never unknown
            lists = []  # legs that may hold None / non-bool values
            const_unknown = False
            for fn in funcs:
                v = fn(batch)
                if v.kind == "const":
                    if v.data is False:
                        return BatchValues("const", False, n)
                    if v.data is None:
                        const_unknown = True
                    # Any other constant (True or non-bool) never makes
                    # the AND false or unknown — same identity checks as
                    # the row loop.
                elif v.kind == "np":
                    if v.data.dtype.kind == "b":
                        arrays.append(v.data)
                    # Non-bool numpy values are never `is False`/`is None`.
                else:
                    lists.append(v.data)
            t = None
            if arrays:
                t = arrays[0]
                for arr in arrays[1:]:
                    t = t & arr
            if lists:
                out: List[Optional[bool]] = []
                for i in range(n):
                    if t is not None and not t[i]:
                        out.append(False)
                        continue
                    unknown = const_unknown
                    value: Optional[bool] = True
                    for data in lists:
                        v = data[i]
                        if v is False:
                            value = False
                            break
                        if v is None:
                            unknown = True
                    out.append(None if value and unknown else value)
                return BatchValues("list", out, n)
            if t is not None:
                if const_unknown:
                    return BatchValues(
                        "list", [None if x else False for x in t.tolist()], n
                    )
                return BatchValues("np", t, n)
            return BatchValues("const", None if const_unknown else True, n)

        return run

    def column_refs(self) -> Set[ColumnKey]:
        refs: Set[ColumnKey] = set()
        for item in self.items:
            refs |= item.column_refs()
        return refs

    def __repr__(self) -> str:
        return "And(" + ", ".join(map(repr, self.items)) + ")"


class Or(Expression):
    def __init__(self, items: Sequence[Expression]) -> None:
        self.items = list(items)

    def bind(self, layout: RowLayout) -> RowFunc:
        funcs = [item.bind(layout) for item in self.items]

        def run(row: Row) -> Optional[bool]:
            unknown = False
            for fn in funcs:
                v = fn(row)
                if v is True:
                    return True
                if v is None:
                    unknown = True
            return None if unknown else False

        return run

    def bind_batch(self, layout: RowLayout) -> BatchFunc:
        funcs = [item.bind_batch(layout) for item in self.items]

        def run(batch: Batch) -> BatchValues:
            n = batch.length
            arrays = []
            lists = []
            const_unknown = False
            for fn in funcs:
                v = fn(batch)
                if v.kind == "const":
                    if v.data is True:
                        return BatchValues("const", True, n)
                    if v.data is None:
                        const_unknown = True
                elif v.kind == "np":
                    if v.data.dtype.kind == "b":
                        arrays.append(v.data)
                    # Non-bool numpy values are never `is True`/`is None`.
                else:
                    lists.append(v.data)
            t = None
            if arrays:
                t = arrays[0]
                for arr in arrays[1:]:
                    t = t | arr
            if lists:
                out: List[Optional[bool]] = []
                for i in range(n):
                    if t is not None and t[i]:
                        out.append(True)
                        continue
                    unknown = const_unknown
                    value: Optional[bool] = False
                    for data in lists:
                        v = data[i]
                        if v is True:
                            value = True
                            break
                        if v is None:
                            unknown = True
                    out.append(None if value is False and unknown else value)
                return BatchValues("list", out, n)
            if t is not None:
                if const_unknown:
                    return BatchValues(
                        "list", [True if x else None for x in t.tolist()], n
                    )
                return BatchValues("np", t, n)
            return BatchValues("const", None if const_unknown else False, n)

        return run

    def column_refs(self) -> Set[ColumnKey]:
        refs: Set[ColumnKey] = set()
        for item in self.items:
            refs |= item.column_refs()
        return refs

    def __repr__(self) -> str:
        return "Or(" + ", ".join(map(repr, self.items)) + ")"


class Not(Expression):
    def __init__(self, item: Expression) -> None:
        self.item = item

    def bind(self, layout: RowLayout) -> RowFunc:
        fn = self.item.bind(layout)

        def run(row: Row) -> Optional[bool]:
            v = fn(row)
            if v is None:
                return None
            return not v

        return run

    def bind_batch(self, layout: RowLayout) -> BatchFunc:
        fn = self.item.bind_batch(layout)

        def run(batch: Batch) -> BatchValues:
            v = fn(batch)
            n = batch.length
            if v.kind == "const":
                return BatchValues(
                    "const", None if v.data is None else (not v.data), n
                )
            if v.kind == "np":
                if v.data.dtype.kind == "b":
                    return BatchValues("np", ~v.data, n)
                # `not` on numbers is truthiness, not bitwise inversion.
                return BatchValues("list", [not x for x in v.data.tolist()], n)
            return BatchValues(
                "list", [None if x is None else (not x) for x in v.data], n
            )

        return run

    def column_refs(self) -> Set[ColumnKey]:
        return self.item.column_refs()

    def __repr__(self) -> str:
        return f"Not({self.item!r})"


class Contains(Expression):
    """Case-insensitive substring containment — the engine-level
    realization of the paper's ``desc.ct('enzyme')`` keyword predicate.

    The batch path is where keyword scans get their speed: with a
    constant needle and a direct column haystack on a scan-fresh batch,
    the haystack's ``str.lower()`` comes from the table's lowered-text
    cache instead of being recomputed per row per query.
    """

    def __init__(self, haystack: Expression, needle: Expression) -> None:
        self.haystack = haystack
        self.needle = needle

    def bind(self, layout: RowLayout) -> RowFunc:
        hf, nf = self.haystack.bind(layout), self.needle.bind(layout)

        def run(row: Row) -> Optional[bool]:
            h, n = hf(row), nf(row)
            if h is None or n is None:
                return None
            return str(n).lower() in str(h).lower()

        return run

    def bind_batch(self, layout: RowLayout) -> BatchFunc:
        hf = self.haystack.bind_batch(layout)
        nf = self.needle.bind_batch(layout)
        hpos: Optional[int] = None
        if isinstance(self.haystack, ColumnRef):
            hpos = layout.position(self.haystack.qualifier, self.haystack.name)

        def run(batch: Batch) -> BatchValues:
            n = batch.length
            nv = nf(batch)
            if nv.kind == "const":
                if nv.data is None:
                    return BatchValues("const", None, n)
                needle = str(nv.data).lower()
                if hpos is not None and batch.lowered is not None:
                    low = batch.lowered(hpos)
                    if low is not None:
                        return BatchValues(
                            "list",
                            [None if h is None else (needle in h) for h in low],
                            n,
                        )
                hv = hf(batch)
                if hv.kind == "const":
                    if hv.data is None:
                        return BatchValues("const", None, n)
                    return BatchValues("const", needle in str(hv.data).lower(), n)
                return BatchValues(
                    "list",
                    [
                        None if h is None else (needle in str(h).lower())
                        for h in hv.pylist()
                    ],
                    n,
                )
            hv = hf(batch)
            out: List[Optional[bool]] = []
            for h, nd in zip(hv.pylist(), nv.pylist()):
                if h is None or nd is None:
                    out.append(None)
                else:
                    out.append(str(nd).lower() in str(h).lower())
            return BatchValues("list", out, n)

        return run

    def column_refs(self) -> Set[ColumnKey]:
        return self.haystack.column_refs() | self.needle.column_refs()

    def __repr__(self) -> str:
        return f"Contains({self.haystack!r}, {self.needle!r})"


class Like(Expression):
    """SQL LIKE with ``%`` and ``_`` wildcards (case-sensitive)."""

    def __init__(self, value: Expression, pattern: str, negated: bool = False) -> None:
        self.value = value
        self.pattern = pattern
        self.negated = negated
        # re.escape leaves % and _ untouched (they are not regex
        # metacharacters), so translate them after escaping the rest.
        regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
        self._compiled = re.compile(f"^{regex}$", re.DOTALL)

    def bind(self, layout: RowLayout) -> RowFunc:
        vf = self.value.bind(layout)
        compiled = self._compiled
        negated = self.negated

        def run(row: Row) -> Optional[bool]:
            v = vf(row)
            if v is None:
                return None
            matched = compiled.match(str(v)) is not None
            return (not matched) if negated else matched

        return run

    def bind_batch(self, layout: RowLayout) -> BatchFunc:
        vf = self.value.bind_batch(layout)
        compiled = self._compiled
        negated = self.negated

        def run(batch: Batch) -> BatchValues:
            v = vf(batch)
            n = batch.length
            if v.kind == "const":
                if v.data is None:
                    return BatchValues("const", None, n)
                matched = compiled.match(str(v.data)) is not None
                return BatchValues("const", (not matched) if negated else matched, n)
            out: List[Optional[bool]] = []
            for x in v.pylist():
                if x is None:
                    out.append(None)
                else:
                    matched = compiled.match(str(x)) is not None
                    out.append((not matched) if negated else matched)
            return BatchValues("list", out, n)

        return run

    def column_refs(self) -> Set[ColumnKey]:
        return self.value.column_refs()

    def __repr__(self) -> str:
        return f"Like({self.value!r}, {self.pattern!r}, negated={self.negated})"


class InList(Expression):
    def __init__(self, value: Expression, options: Sequence[Any], negated: bool = False) -> None:
        self.value = value
        self.options = frozenset(options)
        self.negated = negated

    def bind(self, layout: RowLayout) -> RowFunc:
        vf = self.value.bind(layout)
        options = self.options
        negated = self.negated

        def run(row: Row) -> Optional[bool]:
            v = vf(row)
            if v is None:
                return None
            found = v in options
            return (not found) if negated else found

        return run

    def bind_batch(self, layout: RowLayout) -> BatchFunc:
        vf = self.value.bind_batch(layout)
        options = self.options
        negated = self.negated

        def run(batch: Batch) -> BatchValues:
            v = vf(batch)
            n = batch.length
            if v.kind == "const":
                if v.data is None:
                    return BatchValues("const", None, n)
                found = v.data in options
                return BatchValues("const", (not found) if negated else found, n)
            out: List[Optional[bool]] = []
            for x in v.pylist():
                if x is None:
                    out.append(None)
                else:
                    found = x in options
                    out.append((not found) if negated else found)
            return BatchValues("list", out, n)

        return run

    def column_refs(self) -> Set[ColumnKey]:
        return self.value.column_refs()

    def __repr__(self) -> str:
        return f"InList({self.value!r}, {sorted(map(repr, self.options))}, negated={self.negated})"


class IsNull(Expression):
    def __init__(self, value: Expression, negated: bool = False) -> None:
        self.value = value
        self.negated = negated

    def bind(self, layout: RowLayout) -> RowFunc:
        vf = self.value.bind(layout)
        negated = self.negated

        def run(row: Row) -> bool:
            is_null = vf(row) is None
            return (not is_null) if negated else is_null

        return run

    def bind_batch(self, layout: RowLayout) -> BatchFunc:
        vf = self.value.bind_batch(layout)
        negated = self.negated

        def run(batch: Batch) -> BatchValues:
            v = vf(batch)
            n = batch.length
            if v.kind == "const":
                is_null = v.data is None
                return BatchValues("const", (not is_null) if negated else is_null, n)
            if v.kind == "np":
                # numpy-backed values are never NULL.
                return BatchValues("const", bool(negated), n)
            return BatchValues(
                "list",
                [(x is not None) if negated else (x is None) for x in v.data],
                n,
            )

        return run

    def column_refs(self) -> Set[ColumnKey]:
        return self.value.column_refs()

    def __repr__(self) -> str:
        return f"IsNull({self.value!r}, negated={self.negated})"


_ARITH: Dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


class Arith(Expression):
    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _ARITH:
            raise SqlBindError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def bind(self, layout: RowLayout) -> RowFunc:
        lf, rf = self.left.bind(layout), self.right.bind(layout)
        fn = _ARITH[self.op]

        def run(row: Row) -> Any:
            a, b = lf(row), rf(row)
            if a is None or b is None:
                return None
            return fn(a, b)

        return run

    def bind_batch(self, layout: RowLayout) -> BatchFunc:
        lf, rf = self.left.bind_batch(layout), self.right.bind_batch(layout)
        fn = _ARITH[self.op]
        op = self.op

        def run(batch: Batch) -> BatchValues:
            a, b = lf(batch), rf(batch)
            n = batch.length
            if (a.kind == "const" and a.data is None) or (
                b.kind == "const" and b.data is None
            ):
                return BatchValues("const", None, n)
            if a.kind == "const" and b.kind == "const":
                return BatchValues("const", fn(a.data, b.data), n)
            if a.kind != "list" and b.kind != "list":
                x, y = _np_arith_operand(a), _np_arith_operand(b)
                if op == "/":
                    # Match Python: raise instead of numpy's inf/nan.
                    zero = (y == 0) if b.kind == "const" else bool((y == 0).any())
                    if zero:
                        raise ZeroDivisionError("division by zero")
                return BatchValues("np", fn(x, y), n)
            out: List[Any] = []
            for x, y in zip(a.pylist(), b.pylist()):
                if x is None or y is None:
                    out.append(None)
                else:
                    out.append(fn(x, y))
            return BatchValues("list", out, n)

        return run

    def column_refs(self) -> Set[ColumnKey]:
        return self.left.column_refs() | self.right.column_refs()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class Neg(Expression):
    def __init__(self, value: Expression) -> None:
        self.value = value

    def bind(self, layout: RowLayout) -> RowFunc:
        vf = self.value.bind(layout)

        def run(row: Row) -> Any:
            v = vf(row)
            return None if v is None else -v

        return run

    def bind_batch(self, layout: RowLayout) -> BatchFunc:
        vf = self.value.bind_batch(layout)

        def run(batch: Batch) -> BatchValues:
            v = vf(batch)
            n = batch.length
            if v.kind == "const":
                return BatchValues("const", None if v.data is None else -v.data, n)
            if v.kind == "np":
                if v.data.dtype.kind == "b":
                    # numpy rejects `-` on bool arrays; Python gives -1/0.
                    return BatchValues("list", [-x for x in v.data.tolist()], n)
                return BatchValues("np", -v.data, n)
            return BatchValues(
                "list", [None if x is None else -x for x in v.data], n
            )

        return run

    def column_refs(self) -> Set[ColumnKey]:
        return self.value.column_refs()

    def __repr__(self) -> str:
        return f"Neg({self.value!r})"


class Param(Expression):
    """A named statement parameter (``:name``) whose value is not part
    of the statement: it is planned like a literal and becomes one when
    a plan is built for a binding (:func:`bind_params`).  It never
    reaches an operator, so binding it to a layout is a planner bug."""

    def __init__(self, name: str) -> None:
        self.name = name

    def value(self, params: Optional[Dict[str, Any]]) -> Any:
        """This parameter's value under ``params``."""
        if not params or self.name not in params:
            raise SqlSyntaxError(f"missing value for parameter :{self.name}")
        return params[self.name]

    def bind(self, layout: RowLayout) -> RowFunc:
        raise SqlBindError(f"parameter :{self.name} was never bound to a value")

    def column_refs(self) -> Set[ColumnKey]:
        return set()

    def __repr__(self) -> str:
        return f"Param(:{self.name})"


# ----------------------------------------------------------------------
# Tree rewriting and parameter binding
# ----------------------------------------------------------------------
def rewrite(expr: Expression, fn: Callable[[Expression], Expression]) -> Expression:
    """Rebuild an expression tree bottom-up, applying ``fn`` to each
    node after its children were rebuilt.  A node whose children all
    came back unchanged is handed to ``fn`` as is, so a rewrite that
    changes nothing returns the original tree."""
    node = expr
    if isinstance(expr, (And, Or)):
        items = [rewrite(item, fn) for item in expr.items]
        if any(new is not old for new, old in zip(items, expr.items)):
            node = And(items) if isinstance(expr, And) else Or(items)
    elif isinstance(expr, Not):
        item = rewrite(expr.item, fn)
        if item is not expr.item:
            node = Not(item)
    elif isinstance(expr, (Comparison, Arith)):
        left, right = rewrite(expr.left, fn), rewrite(expr.right, fn)
        if left is not expr.left or right is not expr.right:
            if isinstance(expr, Comparison):
                node = Comparison(expr.op, left, right)
            else:
                node = Arith(expr.op, left, right)
    elif isinstance(expr, Contains):
        haystack, needle = rewrite(expr.haystack, fn), rewrite(expr.needle, fn)
        if haystack is not expr.haystack or needle is not expr.needle:
            node = Contains(haystack, needle)
    elif isinstance(expr, (Like, InList, IsNull, Neg)):
        value = rewrite(expr.value, fn)
        if value is not expr.value:
            if isinstance(expr, Like):
                node = Like(value, expr.pattern, expr.negated)
            elif isinstance(expr, InList):
                node = InList(value, expr.options, expr.negated)
            elif isinstance(expr, IsNull):
                node = IsNull(value, expr.negated)
            else:
                node = Neg(value)
    return fn(node)


def _param_options(node: InList) -> bool:
    return any(isinstance(option, Param) for option in node.options)


def bind_params(expr: Expression, params: Optional[Dict[str, Any]]) -> Expression:
    """``expr`` with every :class:`Param` (an ``IN`` list's included)
    replaced by a :class:`Literal` of its value under ``params``; the
    same object when it holds none."""

    def bind(node: Expression) -> Expression:
        if isinstance(node, Param):
            return Literal(node.value(params))
        if isinstance(node, InList) and _param_options(node):
            options = [
                o.value(params) if isinstance(o, Param) else o for o in node.options
            ]
            return InList(node.value, options, node.negated)
        return node

    return rewrite(expr, bind)


def has_params(expr: Expression) -> bool:
    """Does ``expr`` hold a :class:`Param` anywhere?"""
    found = False

    def spot(node: Expression) -> Expression:
        nonlocal found
        found = found or isinstance(node, Param) or (
            isinstance(node, InList) and _param_options(node)
        )
        return node

    rewrite(expr, spot)
    return found


# ----------------------------------------------------------------------
# Predicate analysis helpers (used by the planner/optimizer)
# ----------------------------------------------------------------------
def split_conjuncts(expr: Optional[Expression]) -> List[Expression]:
    """Flatten nested ANDs into a conjunct list ([] for None)."""
    if expr is None:
        return []
    if isinstance(expr, And):
        out: List[Expression] = []
        for item in expr.items:
            out.extend(split_conjuncts(item))
        return out
    return [expr]


def conjoin(conjuncts: Sequence[Expression]) -> Optional[Expression]:
    """Inverse of :func:`split_conjuncts`."""
    items = list(conjuncts)
    if not items:
        return None
    if len(items) == 1:
        return items[0]
    return And(items)


def referenced_aliases(expr: Expression) -> Set[str]:
    """Qualifiers mentioned by the expression (unqualified refs excluded)."""
    return {q for q, _ in expr.column_refs() if q is not None}


def as_equijoin(expr: Expression) -> Optional[Tuple[ColumnRef, ColumnRef]]:
    """If ``expr`` is ``a.x = b.y`` with two different qualifiers, return
    the pair of refs; otherwise None."""
    if (
        isinstance(expr, Comparison)
        and expr.op == "="
        and isinstance(expr.left, ColumnRef)
        and isinstance(expr.right, ColumnRef)
        and expr.left.qualifier is not None
        and expr.right.qualifier is not None
        and expr.left.qualifier != expr.right.qualifier
    ):
        return expr.left, expr.right
    return None


def is_truthy(value: Any) -> bool:
    """WHERE semantics: unknown (None) counts as false."""
    return value is True
