"""Recursive-descent parser for the SQL subset.

Supported grammar (enough for every query in the paper, SQL1-SQL6):

.. code-block:: text

    query      := core (UNION [ALL] core)*
                  [ORDER BY order (, order)*]
                  [FETCH FIRST n ROWS ONLY | LIMIT n]
    core       := SELECT [DISTINCT] item (, item)*
                  FROM tableref (, tableref | JOIN tableref ON expr)*
                  [WHERE expr]
    item       := * | expr [[AS] ident]
    tableref   := ident [[AS] ident]
    expr       := or-tree over comparisons, [NOT] EXISTS (query core),
                  CONTAINS(expr, expr), LIKE, IN (...), IS [NOT] NULL,
                  BETWEEN, arithmetic, literals, :params

Named parameters (``:name``) may stand wherever a literal may, and for
the ``FETCH FIRST`` / ``LIMIT`` count.  :func:`parse` substitutes them
from its ``params`` mapping, so they become literals;
:func:`parse_prepared` keeps each one as a
:class:`~repro.relational.expressions.Param` node, so the statement it
returns is the same for every binding and values are bound when a plan
is built.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Union

from repro.errors import SqlSyntaxError
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
    Param,
)
from repro.relational.sql.ast import (
    ExistsExpr,
    OrderItem,
    Query,
    SelectCore,
    SelectItem,
    TableRef,
)
from repro.relational.sql.tokens import Token, tokenize

#: Parenthesised, ``NOT`` and unary-minus levels one statement may nest:
#: deeper text is refused with :class:`SqlSyntaxError` instead of
#: exhausting the interpreter's stack in this recursive descent.
MAX_NESTING = 50


class Parser:
    """One-shot parser; use :func:`parse` or :func:`parse_prepared`.
    ``params`` is the mapping parameters are substituted from, or
    ``None`` to keep them as :class:`Param` nodes."""

    def __init__(self, text: str, params: Optional[Dict[str, Any]]) -> None:
        self.tokens = tokenize(text)
        self.pos = 0
        self.params = params
        self.depth = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def accept_keyword(self, word: str) -> bool:
        if self.peek().is_keyword(word):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise SqlSyntaxError(f"expected {word.upper()} near {self._context()}")

    def accept_symbol(self, symbol: str) -> bool:
        if self.peek().is_symbol(symbol):
            self.advance()
            return True
        return False

    def expect_symbol(self, symbol: str) -> None:
        if not self.accept_symbol(symbol):
            raise SqlSyntaxError(f"expected {symbol!r} near {self._context()}")

    def expect_ident(self) -> str:
        token = self.peek()
        if token.kind != "ident":
            raise SqlSyntaxError(f"expected identifier near {self._context()}")
        self.advance()
        return str(token.value)

    def expect_name(self) -> str:
        """An identifier in a position where keywords cannot occur (after
        a dot), so reserved words like ``desc`` are allowed — the Biozon
        Protein table really has a ``desc`` column."""
        token = self.peek()
        if token.kind not in ("ident", "keyword"):
            raise SqlSyntaxError(f"expected column name near {self._context()}")
        self.advance()
        return str(token.value)

    def _context(self) -> str:
        token = self.peek()
        return f"position {token.position} ({token.kind} {token.value!r})"

    # ------------------------------------------------------------------
    # Grammar
    # ------------------------------------------------------------------
    def parse_query(self) -> Query:
        cores = [self.parse_core()]
        union_all = False
        while self.accept_keyword("union"):
            union_all = self.accept_keyword("all")
            cores.append(self.parse_core())

        order_by: List[OrderItem] = []
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            while True:
                expr = self.parse_expr()
                descending = False
                if self.accept_keyword("desc"):
                    descending = True
                elif self.accept_keyword("asc"):
                    descending = False
                order_by.append(OrderItem(expr, descending))
                if not self.accept_symbol(","):
                    break

        fetch_first: Union[int, Param, None] = None
        if self.accept_keyword("fetch"):
            self.expect_keyword("first")
            fetch_first = self._parse_count("FETCH FIRST")
            if not self.accept_keyword("rows"):
                self.accept_keyword("row")
            self.expect_keyword("only")
        elif self.accept_keyword("limit"):
            fetch_first = self._parse_count("LIMIT")

        if self.peek().kind != "end":
            raise SqlSyntaxError(f"unexpected trailing input near {self._context()}")
        return Query(cores, union_all, order_by, fetch_first)

    def _parse_count(self, clause: str) -> Union[int, Param]:
        token = self.advance()
        value = self._param_value(token) if token.kind == "param" else token.value
        if isinstance(value, Param):
            return value
        if token.kind not in ("number", "param") or not is_count(value):
            raise SqlSyntaxError(f"{clause} expects an integer")
        return value

    def parse_core(self) -> SelectCore:
        self.expect_keyword("select")
        distinct = self.accept_keyword("distinct")
        items = [self.parse_select_item()]
        while self.accept_symbol(","):
            items.append(self.parse_select_item())
        self.expect_keyword("from")
        tables: List[TableRef] = [self.parse_table_ref()]
        join_conjuncts: List[Expression] = []
        while True:
            if self.accept_symbol(","):
                tables.append(self.parse_table_ref())
                continue
            if self.peek().is_keyword("inner") or self.peek().is_keyword("join"):
                self.accept_keyword("inner")
                self.expect_keyword("join")
                tables.append(self.parse_table_ref())
                self.expect_keyword("on")
                join_conjuncts.append(self.parse_expr())
                continue
            break
        where: Optional[Expression] = None
        if self.accept_keyword("where"):
            where = self.parse_expr()
        for conjunct in join_conjuncts:
            where = conjunct if where is None else And([where, conjunct])
        return SelectCore(distinct, items, tables, where)

    def parse_select_item(self) -> SelectItem:
        if self.accept_symbol("*"):
            return SelectItem(expr=None, star=True)
        expr = self.parse_expr()
        alias: Optional[str] = None
        if self.accept_keyword("as"):
            alias = self.expect_ident()
        elif self.peek().kind == "ident":
            alias = self.expect_ident()
        return SelectItem(expr=expr, alias=alias)

    def parse_table_ref(self) -> TableRef:
        table = self.expect_ident()
        alias = table
        if self.accept_keyword("as"):
            alias = self.expect_ident()
        elif self.peek().kind == "ident":
            alias = self.expect_ident()
        return TableRef(table=table, alias=alias.lower())

    # -- Expressions -------------------------------------------------------
    def _nested(self, parse: Callable[[], Expression]) -> Expression:
        """``parse()`` one nesting level deeper."""
        self.depth += 1
        try:
            if self.depth > MAX_NESTING:
                raise SqlSyntaxError(f"expression nested deeper than {MAX_NESTING} levels")
            return parse()
        finally:
            self.depth -= 1

    def parse_expr(self) -> Expression:
        return self._nested(self.parse_or)

    def parse_or(self) -> Expression:
        items = [self.parse_and()]
        while self.accept_keyword("or"):
            items.append(self.parse_and())
        return items[0] if len(items) == 1 else Or(items)

    def parse_and(self) -> Expression:
        items = [self.parse_not()]
        while self.accept_keyword("and"):
            items.append(self.parse_not())
        return items[0] if len(items) == 1 else And(items)

    def parse_not(self) -> Expression:
        if self.accept_keyword("not"):
            if self.peek().is_keyword("exists"):
                return self._parse_exists(negated=True)
            return Not(self._nested(self.parse_not))
        if self.peek().is_keyword("exists"):
            return self._parse_exists(negated=False)
        return self.parse_predicate()

    def _parse_exists(self, negated: bool) -> Expression:
        self.expect_keyword("exists")
        self.expect_symbol("(")
        core = self.parse_core()
        self.expect_symbol(")")
        return ExistsExpr(core, negated)

    def parse_predicate(self) -> Expression:
        if self.peek().is_keyword("contains"):
            self.advance()
            self.expect_symbol("(")
            haystack = self.parse_expr()
            self.expect_symbol(",")
            needle = self.parse_expr()
            self.expect_symbol(")")
            return Contains(haystack, needle)
        left = self.parse_additive()
        token = self.peek()
        if token.kind == "symbol" and token.value in ("=", "<>", "<", "<=", ">", ">="):
            op = str(self.advance().value)
            right = self.parse_additive()
            return Comparison(op, left, right)
        if token.is_keyword("like"):
            self.advance()
            pattern_token = self.advance()
            if pattern_token.kind != "string":
                raise SqlSyntaxError("LIKE expects a string pattern")
            return Like(left, str(pattern_token.value))
        if token.is_keyword("not"):
            # col NOT LIKE / NOT IN / NOT BETWEEN
            self.advance()
            if self.accept_keyword("like"):
                pattern_token = self.advance()
                if pattern_token.kind != "string":
                    raise SqlSyntaxError("LIKE expects a string pattern")
                return Like(left, str(pattern_token.value), negated=True)
            if self.accept_keyword("in"):
                return self._parse_in(left, negated=True)
            raise SqlSyntaxError(f"unexpected NOT near {self._context()}")
        if token.is_keyword("in"):
            self.advance()
            return self._parse_in(left, negated=False)
        if token.is_keyword("is"):
            self.advance()
            negated = self.accept_keyword("not")
            self.expect_keyword("null")
            return IsNull(left, negated=negated)
        if token.is_keyword("between"):
            self.advance()
            low = self.parse_additive()
            self.expect_keyword("and")
            high = self.parse_additive()
            return And([Comparison(">=", left, low), Comparison("<=", left, high)])
        return left

    def _parse_in(self, left: Expression, negated: bool) -> Expression:
        self.expect_symbol("(")
        values: List[Any] = []
        while True:
            token = self.advance()
            if token.kind in ("number", "string"):
                values.append(token.value)
            elif token.kind == "param":
                values.append(self._param_value(token))
            elif token.is_keyword("true"):
                values.append(True)
            elif token.is_keyword("false"):
                values.append(False)
            else:
                raise SqlSyntaxError("IN list expects literals")
            if not self.accept_symbol(","):
                break
        self.expect_symbol(")")
        return InList(left, values, negated=negated)

    def parse_additive(self) -> Expression:
        left = self.parse_multiplicative()
        while True:
            token = self.peek()
            if token.kind == "symbol" and token.value in ("+", "-"):
                op = str(self.advance().value)
                left = Arith(op, left, self.parse_multiplicative())
            else:
                return left

    def parse_multiplicative(self) -> Expression:
        left = self.parse_primary()
        while True:
            token = self.peek()
            if token.kind == "symbol" and token.value in ("*", "/"):
                op = str(self.advance().value)
                left = Arith(op, left, self.parse_primary())
            else:
                return left

    def parse_primary(self) -> Expression:
        token = self.peek()
        if token.is_symbol("("):
            self.advance()
            inner = self.parse_expr()
            self.expect_symbol(")")
            return inner
        if token.is_symbol("-"):
            self.advance()
            return Neg(self._nested(self.parse_primary))
        if token.kind == "number" or token.kind == "string":
            self.advance()
            return Literal(token.value)
        if token.kind == "param":
            self.advance()
            value = self._param_value(token)
            return value if isinstance(value, Param) else Literal(value)
        if token.is_keyword("null"):
            self.advance()
            return Literal(None)
        if token.is_keyword("true"):
            self.advance()
            return Literal(True)
        if token.is_keyword("false"):
            self.advance()
            return Literal(False)
        if token.kind == "ident":
            name = self.expect_ident()
            if self.accept_symbol("."):
                column = self.expect_name()
                return ColumnRef(name, column)
            return ColumnRef(None, name)
        raise SqlSyntaxError(f"unexpected token near {self._context()}")

    def _param_value(self, token: Token) -> Any:
        """The substituted value, or the :class:`Param` itself when
        parameters are bound later."""
        param = Param(str(token.value))
        return param if self.params is None else param.value(self.params)


def is_count(value: Any) -> bool:
    """Is ``value`` a valid ``FETCH FIRST`` / ``LIMIT`` count?"""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def parse(text: str, params: Optional[Dict[str, Any]] = None) -> Query:
    """Parse SQL text into a :class:`Query` AST, substituting ``params``
    for its ``:name`` parameters."""
    return Parser(text, params or {}).parse_query()


def parse_prepared(text: str) -> Query:
    """Parse SQL text into a :class:`Query` AST whose parameters are
    :class:`Param` nodes, bound when a plan is built."""
    return Parser(text, None).parse_query()
