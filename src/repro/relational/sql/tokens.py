"""SQL tokenizer for the subset used by the paper's queries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.errors import SqlSyntaxError

KEYWORDS = {
    "select", "distinct", "from", "where", "and", "or", "not", "exists",
    "union", "all", "order", "by", "asc", "desc", "fetch", "first", "rows",
    "row", "only", "limit", "as", "join", "inner", "on", "like", "in",
    "is", "null", "between", "contains", "true", "false",
}

SYMBOLS = ("<=", ">=", "<>", "!=", "=", "<", ">", "(", ")", ",", ".", "+", "-", "*", "/")

# ASCII only: str.isdigit() also accepts digits int() cannot read ("¹").
DIGITS = frozenset("0123456789")


def sql_quote(value: object) -> str:
    """Render a Python value as a SQL literal.

    The inverse of this tokenizer's literal handling: embedded single
    quotes are escaped by doubling (``O'Brien`` -> ``'O''Brien'``), so
    any value round-trips through :func:`tokenize`.  Shared by every
    layer that renders a value into SQL text (the display form of
    constraints and of the methods' statements, which execute with
    :class:`SqlParams` instead) — never interpolate raw strings into
    quotes."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"


class SqlParams(dict):
    """The values of one generated statement's parameters.

    :meth:`ref` binds the next name (``p0``, ``p1``, ...) and returns its
    placeholder, so a generator emits the same text for every binding of
    a statement shape and the engine prepares the shape once."""

    def ref(self, value: object) -> str:
        name = f"p{len(self)}"
        self[name] = value
        return f":{name}"


def sql_value(value: object, params: Optional[SqlParams]) -> str:
    """``value`` as a parameter of ``params``, or — ``params`` None, the
    display form — as a :func:`sql_quote` literal."""
    return sql_quote(value) if params is None else params.ref(value)


@dataclass(frozen=True)
class Token:
    """One lexical token.

    ``kind`` is one of: ``keyword``, ``ident``, ``number``, ``string``,
    ``symbol``, ``param``, ``end``.  ``value`` holds the normalized
    payload (keywords lowercased, numbers converted, strings unquoted).
    """

    kind: str
    value: object
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.kind == "keyword" and self.value == word

    def is_symbol(self, symbol: str) -> bool:
        return self.kind == "symbol" and self.value == symbol


def tokenize(text: str) -> List[Token]:
    """Tokenize SQL text; raises :class:`SqlSyntaxError` on bad input."""
    tokens: List[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == "-":  # line comment
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "'":
            j = i + 1
            buf: List[str] = []
            while True:
                if j >= n:
                    raise SqlSyntaxError(f"unterminated string literal at {i}")
                if text[j] == "'":
                    if j + 1 < n and text[j + 1] == "'":  # escaped quote
                        buf.append("'")
                        j += 2
                        continue
                    break
                buf.append(text[j])
                j += 1
            tokens.append(Token("string", "".join(buf), i))
            i = j + 1
            continue
        if ch in DIGITS:
            j = i
            seen_dot = False
            while j < n and (text[j] in DIGITS or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    # Don't swallow a trailing dot that belongs to syntax.
                    if j + 1 >= n or text[j + 1] not in DIGITS:
                        break
                    seen_dot = True
                j += 1
            literal = text[i:j]
            value: object = float(literal) if "." in literal else int(literal)
            tokens.append(Token("number", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            lowered = word.lower()
            if lowered in KEYWORDS:
                tokens.append(Token("keyword", lowered, i))
            else:
                tokens.append(Token("ident", word, i))
            i = j
            continue
        if ch == ":":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i + 1:
                raise SqlSyntaxError(f"dangling ':' at {i}")
            tokens.append(Token("param", text[i + 1 : j], i))
            i = j
            continue
        matched: Optional[str] = None
        for symbol in SYMBOLS:
            if text.startswith(symbol, i):
                matched = symbol
                break
        if matched is None:
            raise SqlSyntaxError(f"unexpected character {ch!r} at {i}")
        if matched == "!=":
            matched = "<>"
        tokens.append(Token("symbol", matched, i))
        i += len(matched)
    tokens.append(Token("end", None, n))
    return tokens
