"""SQL front end: tokenizer, parser, planner, engine."""

from repro.relational.sql.ast import (
    ExistsExpr,
    OrderItem,
    Query,
    SelectCore,
    SelectItem,
    TableRef,
)
from repro.relational.sql.parser import parse, parse_prepared
from repro.relational.sql.planner import Engine, Planner, QueryResult, StatementCacheStats
from repro.relational.sql.tokens import SqlParams, Token, sql_quote, sql_value, tokenize

__all__ = [
    "Engine",
    "ExistsExpr",
    "OrderItem",
    "Planner",
    "Query",
    "QueryResult",
    "SelectCore",
    "SelectItem",
    "SqlParams",
    "StatementCacheStats",
    "TableRef",
    "Token",
    "parse",
    "parse_prepared",
    "sql_quote",
    "sql_value",
    "tokenize",
]
