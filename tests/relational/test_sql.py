"""SQL front end: tokenizer, parser, and end-to-end execution."""

from __future__ import annotations

import pytest

from repro.errors import SqlBindError, SqlError, SqlSyntaxError
from repro.relational import Column, Database, Engine, TableSchema
from repro.relational.expressions import (
    And,
    ColumnRef,
    Comparison,
    Contains,
    InList,
    Like,
    Literal,
    Or,
    Param,
)
from repro.relational.runtime import columnar_mode, row_mode
from repro.relational.sql import StatementCacheStats, parse, parse_prepared, tokenize
from repro.relational.sql.ast import ExistsExpr
from repro.relational.sql.planner import PLAN_CACHE_SIZE
from repro.relational.types import DataType


# ----------------------------------------------------------------------
# Tokenizer
# ----------------------------------------------------------------------
class TestTokenizer:
    def test_keywords_and_idents(self):
        kinds = [(t.kind, t.value) for t in tokenize("SELECT foo FROM Bar")]
        assert kinds[:4] == [
            ("keyword", "select"),
            ("ident", "foo"),
            ("keyword", "from"),
            ("ident", "Bar"),
        ]

    def test_string_with_escaped_quote(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")

    def test_numbers(self):
        tokens = tokenize("42 3.5")
        assert tokens[0].value == 42 and tokens[1].value == 3.5

    def test_comparison_symbols(self):
        values = [t.value for t in tokenize("<= >= <> != = < >") if t.kind == "symbol"]
        assert values == ["<=", ">=", "<>", "<>", "=", "<", ">"]

    def test_params(self):
        tokens = tokenize(":kw")
        assert tokens[0].kind == "param" and tokens[0].value == "kw"

    def test_line_comment(self):
        tokens = tokenize("SELECT -- comment\n1")
        assert [t.kind for t in tokens] == ["keyword", "number", "end"]

    def test_bad_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT !")


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
class TestParser:
    def test_basic_select(self):
        q = parse("SELECT a.x FROM T a WHERE a.x = 1")
        core = q.cores[0]
        assert not core.distinct
        assert core.tables[0].table == "T" and core.tables[0].alias == "a"
        assert isinstance(core.where, Comparison)

    def test_distinct_and_star(self):
        q = parse("SELECT DISTINCT * FROM T")
        assert q.cores[0].distinct
        assert q.cores[0].items[0].star

    def test_aliases(self):
        q = parse("SELECT t.x AS out1, t.y out2 FROM Tab AS t")
        items = q.cores[0].items
        assert items[0].alias == "out1" and items[1].alias == "out2"

    def test_join_on_folds_into_where(self):
        q = parse("SELECT a.x FROM A a JOIN B b ON a.id = b.id WHERE a.x = 1")
        assert isinstance(q.cores[0].where, And)
        assert len(q.cores[0].tables) == 2

    def test_union_and_order(self):
        q = parse(
            "SELECT a.x FROM A a UNION SELECT b.x FROM B b "
            "ORDER BY x DESC FETCH FIRST 5 ROWS ONLY"
        )
        assert len(q.cores) == 2
        assert not q.union_all
        assert q.order_by[0].descending
        assert q.fetch_first == 5

    def test_union_all(self):
        q = parse("SELECT a.x FROM A a UNION ALL SELECT b.x FROM B b")
        assert q.union_all

    def test_limit(self):
        assert parse("SELECT a.x FROM A a LIMIT 3").fetch_first == 3

    def test_contains(self):
        q = parse("SELECT a.x FROM A a WHERE CONTAINS(a.desc, 'enzyme')")
        assert isinstance(q.cores[0].where, Contains)

    def test_keyword_column_after_dot(self):
        q = parse("SELECT a.desc FROM A a")
        item = q.cores[0].items[0]
        assert isinstance(item.expr, ColumnRef) and item.expr.name == "desc"

    def test_exists(self):
        q = parse("SELECT a.x FROM A a WHERE EXISTS (SELECT 1 FROM B b WHERE b.id = a.id)")
        assert isinstance(q.cores[0].where, ExistsExpr)
        assert not q.cores[0].where.negated

    def test_not_exists(self):
        q = parse("SELECT a.x FROM A a WHERE NOT EXISTS (SELECT 1 FROM B b)")
        assert q.cores[0].where.negated

    def test_in_and_between_and_like(self):
        q = parse(
            "SELECT a.x FROM A a WHERE a.x IN (1, 2) AND a.y BETWEEN 1 AND 9 "
            "AND a.name LIKE 'x%'"
        )
        conjuncts = q.cores[0].where.items
        assert isinstance(conjuncts[0], InList)
        assert isinstance(conjuncts[1], And)
        assert isinstance(conjuncts[2], Like)

    def test_params_substitution(self):
        q = parse("SELECT a.x FROM A a WHERE a.x = :v", params={"v": 7})
        assert isinstance(q.cores[0].where.right, Literal)
        assert q.cores[0].where.right.value == 7

    def test_missing_param(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT a.x FROM A a WHERE a.x = :v")

    def test_precedence_or_and(self):
        q = parse("SELECT a.x FROM A a WHERE a.x = 1 OR a.x = 2 AND a.y = 3")
        assert isinstance(q.cores[0].where, Or)

    def test_arith_precedence(self):
        q = parse("SELECT a.x + a.y * 2 FROM A a")
        expr = q.cores[0].items[0].expr
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_trailing_garbage(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT a.x FROM A a banana!!")

    def test_missing_from(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT 1")


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def engine():
    db = Database("sqltests")
    emp = db.create_table(
        TableSchema(
            "Emp",
            [
                Column("ID", DataType.INT, True),
                Column("NAME", DataType.TEXT),
                Column("DEPT", DataType.INT),
                Column("SALARY", DataType.FLOAT),
            ],
            primary_key="ID",
        )
    )
    emp.create_hash_index("by_dept", ["DEPT"])
    emp.create_sorted_index("by_salary", "SALARY")
    emp.bulk_load(
        [
            (1, "ann enzyme", 10, 100.0),
            (2, "bob", 10, 200.0),
            (3, "cara", 20, 150.0),
            (4, "dan enzyme", 20, 50.0),
            (5, "eve", None, None),
        ]
    )
    dept = db.create_table(
        TableSchema(
            "Dept",
            [Column("ID", DataType.INT, True), Column("NAME", DataType.TEXT)],
            primary_key="ID",
        )
    )
    dept.bulk_load([(10, "tools"), (20, "research"), (30, "empty")])
    return Engine(db)


class TestExecution:
    def test_filter_eq(self, engine):
        r = engine.execute("SELECT e.NAME FROM Emp e WHERE e.ID = 3")
        assert r.rows == [("cara",)]

    def test_contains(self, engine):
        r = engine.execute("SELECT e.ID FROM Emp e WHERE CONTAINS(e.NAME, 'enzyme')")
        assert sorted(r.rows) == [(1,), (4,)]

    def test_join(self, engine):
        r = engine.execute(
            "SELECT e.NAME, d.NAME FROM Emp e, Dept d WHERE e.DEPT = d.ID AND d.NAME = 'research'"
        )
        assert sorted(r.rows) == [("cara", "research"), ("dan enzyme", "research")]

    def test_join_syntax(self, engine):
        r = engine.execute(
            "SELECT e.ID FROM Emp e JOIN Dept d ON e.DEPT = d.ID WHERE d.ID = 10"
        )
        assert sorted(r.rows) == [(1,), (2,)]

    def test_null_never_joins(self, engine):
        r = engine.execute("SELECT e.ID FROM Emp e, Dept d WHERE e.DEPT = d.ID")
        assert (5,) not in r.rows

    def test_order_by_desc(self, engine):
        r = engine.execute("SELECT e.ID FROM Emp e ORDER BY e.SALARY DESC")
        assert [row[0] for row in r.rows][:2] == [2, 3]

    def test_order_by_output_alias(self, engine):
        r = engine.execute(
            "SELECT e.ID, e.SALARY AS S FROM Emp e WHERE e.SALARY > 0 ORDER BY S DESC"
        )
        assert [row[0] for row in r.rows] == [2, 3, 1, 4]

    def test_fetch_first(self, engine):
        r = engine.execute(
            "SELECT e.ID FROM Emp e ORDER BY e.SALARY DESC FETCH FIRST 2 ROWS ONLY"
        )
        assert [row[0] for row in r.rows] == [2, 3]

    def test_distinct(self, engine):
        r = engine.execute("SELECT DISTINCT e.DEPT FROM Emp e WHERE e.DEPT = 10")
        assert r.rows == [(10,)]

    def test_union_dedups(self, engine):
        r = engine.execute(
            "SELECT e.ID FROM Emp e WHERE e.ID = 1 UNION SELECT e.ID FROM Emp e WHERE e.ID = 1"
        )
        assert r.rows == [(1,)]

    def test_union_all_keeps_duplicates(self, engine):
        r = engine.execute(
            "SELECT e.ID FROM Emp e WHERE e.ID = 1 UNION ALL SELECT e.ID FROM Emp e WHERE e.ID = 1"
        )
        assert r.rows == [(1,), (1,)]

    def test_exists_correlated(self, engine):
        r = engine.execute(
            "SELECT d.ID FROM Dept d WHERE EXISTS (SELECT 1 FROM Emp e WHERE e.DEPT = d.ID)"
        )
        assert sorted(r.rows) == [(10,), (20,)]

    def test_not_exists_correlated(self, engine):
        r = engine.execute(
            "SELECT d.ID FROM Dept d WHERE NOT EXISTS (SELECT 1 FROM Emp e WHERE e.DEPT = d.ID)"
        )
        assert r.rows == [(30,)]

    def test_not_exists_with_local_predicate(self, engine):
        r = engine.execute(
            "SELECT d.ID FROM Dept d WHERE NOT EXISTS "
            "(SELECT 1 FROM Emp e WHERE e.DEPT = d.ID AND CONTAINS(e.NAME, 'enzyme'))"
        )
        assert r.rows == [(30,)] or sorted(r.rows) == [(30,)]

    def test_uncorrelated_exists(self, engine):
        r = engine.execute(
            "SELECT d.ID FROM Dept d WHERE EXISTS (SELECT 1 FROM Emp e WHERE e.ID = 1)"
        )
        assert len(r.rows) == 3
        r = engine.execute(
            "SELECT d.ID FROM Dept d WHERE EXISTS (SELECT 1 FROM Emp e WHERE e.ID = 999)"
        )
        assert r.rows == []

    def test_literal_select(self, engine):
        r = engine.execute("SELECT 5 AS TID FROM Dept d WHERE d.ID = 10")
        assert r.rows == [(5,)]
        assert r.columns == ["tid"]

    def test_in_list(self, engine):
        r = engine.execute("SELECT e.ID FROM Emp e WHERE e.ID IN (1, 4, 99)")
        assert sorted(r.rows) == [(1,), (4,)]

    def test_is_null(self, engine):
        r = engine.execute("SELECT e.ID FROM Emp e WHERE e.DEPT IS NULL")
        assert r.rows == [(5,)]

    def test_unknown_table(self, engine):
        with pytest.raises(SqlBindError):
            engine.execute("SELECT x.ID FROM Nope x")

    def test_unknown_column(self, engine):
        with pytest.raises(SqlBindError):
            engine.execute("SELECT e.BOGUS FROM Emp e")

    def test_ambiguous_column(self, engine):
        with pytest.raises(SqlBindError):
            engine.execute("SELECT ID FROM Emp e, Dept d WHERE e.DEPT = d.ID")

    def test_unqualified_unique_column(self, engine):
        r = engine.execute("SELECT SALARY FROM Emp e WHERE SALARY = 100.0")
        assert r.rows == [(100.0,)]

    def test_exists_in_or_unsupported(self, engine):
        with pytest.raises(SqlError):
            engine.execute(
                "SELECT e.ID FROM Emp e WHERE e.ID = 1 OR "
                "EXISTS (SELECT 1 FROM Dept d WHERE d.ID = e.DEPT)"
            )

    def test_explain_produces_tree(self, engine):
        text = engine.explain(
            "SELECT e.ID FROM Emp e, Dept d WHERE e.DEPT = d.ID AND d.NAME = 'tools'"
        )
        assert "Project" in text

    def test_result_helpers(self, engine):
        r = engine.execute("SELECT e.ID FROM Emp e WHERE e.ID = 1")
        assert r.scalar() == 1
        assert r.column("id") == [1]
        assert len(r) == 1


# ----------------------------------------------------------------------
# Late-bound parameters and the statement cache
# ----------------------------------------------------------------------
def _small_engine() -> Engine:
    db = Database("params")
    table = db.create_table(
        TableSchema("t", [Column("ID", DataType.INT, True), Column("X", DataType.TEXT)], "ID")
    )
    named = {1: "kinase binding", 2: "kinase", 3: "membrane"}
    # 'kinase' in 10 % of the rows, 'binding' and 'membrane' in 5 %.
    table.bulk_load([(i, named.get(i, "other")) for i in range(1, 21)])
    return Engine(db)


class TestParameters:
    def test_cached_plan_never_serves_another_bindings_value(self):
        """1, True and 1.0 are equal and hash equal, so a cache keyed on
        the values served the first one's literal to the other two."""
        engine = _small_engine()
        sql = "SELECT ID, :v AS v FROM t WHERE ID = 1"
        answers = [repr(engine.execute(sql, {"v": v}).rows) for v in (1, True, 1.0)]
        assert answers == ["[(1, 1)]", "[(1, True)]", "[(1, 1.0)]"]

    def test_prepared_parse_keeps_parameters(self):
        q = parse_prepared(
            "SELECT a.x, :tag FROM A a WHERE a.x = :v AND a.y IN (:p, 3) FETCH FIRST :k ROWS ONLY"
        )
        where = q.cores[0].where
        assert isinstance(where.items[0].right, Param)
        assert any(isinstance(o, Param) for o in where.items[1].options)
        assert isinstance(q.cores[0].items[1].expr, Param)
        assert isinstance(q.fetch_first, Param) and q.fetch_first.name == "k"

    def test_parameters_everywhere_a_literal_goes(self):
        engine = _small_engine()
        sql = (
            "SELECT ID, :tag AS TAG FROM t WHERE CONTAINS(X, :word) "
            "AND ID IN (:a, :b) ORDER BY ID DESC LIMIT :k"
        )
        binding = {"tag": "hit", "word": "kinase", "a": 1, "b": 2, "k": 1}
        assert engine.execute(sql, binding).rows == [(2, "hit")]
        with row_mode():
            assert engine.execute(sql, binding).rows == [(2, "hit")]

    def test_missing_or_bad_binding_is_an_sql_error(self):
        engine = _small_engine()
        with pytest.raises(SqlSyntaxError):
            engine.execute("SELECT ID FROM t WHERE ID = :v", {})
        with pytest.raises(SqlSyntaxError):
            engine.execute("SELECT ID FROM t FETCH FIRST :k ROWS ONLY", {"k": "3"})
        with pytest.raises(SqlSyntaxError):
            parse("SELECT a.x FROM A a LIMIT :k", {"k": -1})

    def test_bindings_of_one_class_share_a_plan_but_not_values(self):
        engine = _small_engine()
        sql = "SELECT ID FROM t WHERE CONTAINS(X, :word)"
        with columnar_mode():
            assert engine.execute(sql, {"word": "kinase"}).rows == [(1,), (2,)]
            # 'binding' is as selective as 'membrane': a second class.
            assert engine.execute(sql, {"word": "membrane"}).rows == [(3,)]
            assert engine.execute(sql, {"word": "binding"}).rows == [(1,)]
        assert engine.statement_cache_stats() == StatementCacheStats(
            hits=1, misses=2, texts=1, classes=2, size=PLAN_CACHE_SIZE
        )

    def test_explain_shows_the_plan_the_binding_executes(self):
        engine = _small_engine()
        sql = "SELECT ID FROM t WHERE CONTAINS(X, :word) AND ID = :id"
        with columnar_mode():
            first = engine.explain(sql, {"word": "membrane", "id": 3})
            second = engine.explain(sql, {"word": "binding", "id": 1})
            assert engine.statement_cache_stats().misses == 1  # one class, one plan
            assert engine.execute(sql, {"word": "binding", "id": 1}).rows == [(1,)]
            assert engine.statement_cache_stats().hits == 2
        assert "'binding'" in second and "'membrane'" not in second
        assert first.replace("'membrane'", "'binding'").replace("key=3", "key=1") == second

    def test_explain_shows_a_negated_like(self):
        db = Database("like")
        table = db.create_table(
            TableSchema("T", [Column("ID", DataType.INT, True), Column("NAME", DataType.TEXT)], "ID")
        )
        table.bulk_load([(1, "alpha"), (2, "beta")])
        engine = Engine(db)
        sql = "SELECT ID FROM T WHERE NAME NOT LIKE 'a%'"
        assert engine.execute(sql).rows == [(2,)]
        assert "negated=True" in engine.explain(sql)
        assert "negated=False" in engine.explain("SELECT ID FROM T WHERE NAME LIKE 'a%'")
