"""Statistics collection and selectivity estimation."""

from __future__ import annotations

import pytest

from repro.relational import Column, Database, StatsCatalog, TableSchema
from repro.relational.expressions import (
    And,
    ColumnRef,
    Comparison,
    Contains,
    InList,
    IsNull,
    Literal,
    Not,
    Or,
)
from repro.relational.statistics import collect_table_stats
from repro.relational.types import DataType


@pytest.fixture(scope="module")
def db():
    db = Database("stats")
    t = db.create_table(
        TableSchema(
            "Items",
            [
                Column("ID", DataType.INT, True),
                Column("GRP", DataType.INT),
                Column("PRICE", DataType.FLOAT),
                Column("DESC", DataType.TEXT),
            ],
            primary_key="ID",
        )
    )
    rows = []
    for i in range(1, 101):
        grp = i % 10
        price = float(i)
        desc = "cheap widget" if i <= 25 else "fancy gadget"
        rows.append((i, grp if i % 5 else None, price, desc))
    t.bulk_load(rows)
    return db


@pytest.fixture(scope="module")
def catalog(db):
    c = StatsCatalog(db)
    c.refresh()
    return c


ALIASES = {"i": "Items"}


class TestCollection:
    def test_row_count(self, catalog):
        assert catalog.row_count("Items") == 100

    def test_distinct_and_nulls(self, catalog):
        grp = catalog.table_stats("Items").column("grp")
        assert grp.null_count == 20
        # i % 10 over i not divisible by 5 never produces 0 or 5.
        assert grp.n_distinct == 8
        assert 0.19 < grp.null_fraction < 0.21

    def test_min_max(self, catalog):
        price = catalog.table_stats("Items").column("price")
        assert price.min_value == 1.0 and price.max_value == 100.0

    def test_keyword_fractions(self, catalog):
        stats = catalog.table_stats("Items")
        assert stats.keyword_fractions[("desc", "cheap")] == pytest.approx(0.25)
        assert stats.keyword_fractions[("desc", "fancy")] == pytest.approx(0.75)

    def test_collect_without_keywords(self, db):
        stats = collect_table_stats(db.table("Items"), index_keywords=False)
        assert not stats.keyword_fractions


class TestSelectivity:
    def test_equality(self, catalog):
        sel = catalog.predicate_selectivity(
            Comparison("=", ColumnRef("i", "grp"), Literal(3)), ALIASES
        )
        assert sel == pytest.approx(0.8 / 8)

    def test_range(self, catalog):
        sel = catalog.predicate_selectivity(
            Comparison("<", ColumnRef("i", "price"), Literal(26.0)), ALIASES
        )
        assert 0.15 < sel < 0.35

    def test_contains_known_keyword(self, catalog):
        sel = catalog.predicate_selectivity(
            Contains(ColumnRef("i", "desc"), Literal("cheap")), ALIASES
        )
        assert sel == pytest.approx(0.25)

    def test_contains_unknown_keyword_default(self, catalog):
        sel = catalog.predicate_selectivity(
            Contains(ColumnRef("i", "desc"), Literal("unseen")), ALIASES
        )
        assert sel == pytest.approx(0.1)

    def test_and_multiplies(self, catalog):
        a = Contains(ColumnRef("i", "desc"), Literal("cheap"))
        sel = catalog.predicate_selectivity(And([a, a]), ALIASES)
        assert sel == pytest.approx(0.0625)

    def test_or_inclusion_exclusion(self, catalog):
        a = Contains(ColumnRef("i", "desc"), Literal("cheap"))
        sel = catalog.predicate_selectivity(Or([a, a]), ALIASES)
        assert sel == pytest.approx(1 - 0.75**2)

    def test_not_complements(self, catalog):
        a = Contains(ColumnRef("i", "desc"), Literal("cheap"))
        sel = catalog.predicate_selectivity(Not(a), ALIASES)
        assert sel == pytest.approx(0.75)

    def test_in_list(self, catalog):
        sel = catalog.predicate_selectivity(
            InList(ColumnRef("i", "grp"), [1, 2, 3]), ALIASES
        )
        assert sel == pytest.approx(3 * 0.1)

    def test_is_null(self, catalog):
        sel = catalog.predicate_selectivity(
            IsNull(ColumnRef("i", "grp")), ALIASES
        )
        assert sel == pytest.approx(0.2)
        sel = catalog.predicate_selectivity(
            IsNull(ColumnRef("i", "grp"), negated=True), ALIASES
        )
        assert sel == pytest.approx(0.8)

    @pytest.mark.parametrize(
        "expr, expected",
        [
            (Comparison("=", Literal(1), Literal(1)), 1.0),
            (Literal(True), 1.0),
            (Comparison("=", Literal(1), Literal(0)), 0.0),
        ],
    )
    def test_constant_predicate_is_evaluated(self, catalog, expr, expected):
        assert catalog.predicate_selectivity(expr, ALIASES) == expected

    def test_join_selectivity(self, catalog):
        sel = catalog.join_selectivity("Items", "id", "Items", "grp")
        assert sel == pytest.approx(1.0 / 100)

    def test_selectivities_bounded(self, catalog):
        exprs = [
            Comparison(">", ColumnRef("i", "price"), Literal(-5.0)),
            Comparison("<", ColumnRef("i", "price"), Literal(1e9)),
            Comparison("<>", ColumnRef("i", "grp"), Literal(1)),
        ]
        for e in exprs:
            sel = catalog.predicate_selectivity(e, ALIASES)
            assert 0.0 <= sel <= 1.0
