"""Referenced-column access paths: a statement's scans, filters and
index joins emit only the columns it reads, and nothing else changes.

``golden/column_pruning.json`` was recorded at the commit *before*
pruning existed (every access path emitting every column), on the
``tiny_system`` fixture: for each of the four statement shapes the
``direct_exhaustive`` benchmark workload executes — the full-top join,
fast-top's UNION with a NOT EXISTS branch, SQL3 and SQL4 — and for a
``SELECT *``, the rows, the column names and the ``explain()`` text.
The plans must still be those plans and return those answers, in both
execution modes; what may differ is only what each operator carries.
The ``explain`` strings were re-recorded once since, unchanged in plan,
when the join operators began printing their keys and residuals.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, Iterator, Set, Tuple

import pytest

from repro.core import AttributeConstraint, KeywordConstraint, TopologyQuery
from repro.core.methods import create_method
from repro.core.methods.pruned import pruned_topologies
from repro.relational import columnar_mode, row_mode
from repro.relational.operators import Operator, Project
from repro.relational.sql.parser import parse

GOLDEN = Path(__file__).parent / "golden" / "column_pruning.json"

STAR = "select-star"


def statements(system) -> Dict[str, str]:
    """label -> SQL text, generated by the methods themselves."""
    query = TopologyQuery(
        "Protein",
        "DNA",
        KeywordConstraint("DESC", "kinase"),
        AttributeConstraint("TYPE", "mRNA"),
        k=4,
        ranking="freq",
    )
    assert pruned_topologies(system, query), "fixture lost its pruned topology"
    return {
        "full-top": create_method("full-top", system).pairs_sql(query),
        "fast-top-union": create_method("fast-top", system).sql_for(query),
        "sql3": create_method("full-top-k", system).pairs_sql(query),
        "sql4": create_method("fast-top-k", system).pairs_sql(query),
        STAR: (
            "SELECT * FROM Protein q1, LeftTops LT "
            "WHERE CONTAINS(q1.DESC, 'kinase') AND q1.ID = LT.E1"
        ),
    }


def walk(op: Operator) -> Iterator[Operator]:
    yield op
    for child in op.children():
        yield from walk(child)


def block_operators(plan: Operator) -> Iterator[Operator]:
    """The operators under each SELECT core's projection — where base
    columns live; above it a layout holds select-list outputs."""
    for op in walk(plan):
        if isinstance(op, Project):
            yield from walk(op.child)


def referenced(sql: str) -> Set[Tuple[str, str]]:
    """Every ``alias.column`` the statement text names (the generated
    statements qualify every reference)."""
    return {(a.lower(), c.lower()) for a, c in re.findall(r"\b([A-Za-z]\w*)\.([A-Za-z_]\w*)", sql)}


@pytest.fixture(scope="module")
def golden() -> Dict[str, dict]:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def sql_by_label(tiny_system, golden) -> Dict[str, str]:
    sql = statements(tiny_system)
    assert {label: entry["sql"] for label, entry in golden.items()} == sql
    return sql


@pytest.mark.parametrize("label", ["full-top", "fast-top-union", "sql3", "sql4", STAR])
class TestAgainstUnprunedParent:
    def test_same_answer_both_modes(self, tiny_system, golden, sql_by_label, label):
        expected = golden[label]
        assert expected["rows"], "a golden statement must return something"
        for mode in (row_mode, columnar_mode):
            with mode():
                result = tiny_system.engine.execute(sql_by_label[label])
            assert result.columns == expected["columns"]
            assert [list(row) for row in result.rows] == expected["rows"]

    def test_same_plan(self, tiny_system, golden, sql_by_label, label):
        assert tiny_system.engine.explain(sql_by_label[label]) == golden[label]["explain"]

    def test_layouts_hold_only_what_is_read(self, tiny_system, sql_by_label, label):
        sql = sql_by_label[label]
        plan, _ = tiny_system.engine.planner.plan(parse(sql))
        read = referenced(sql)
        tables = {  # every access path names its table and alias
            op.alias.lower(): op.table for op in walk(plan) if hasattr(op, "table")
        }
        assert len(tables) >= 2
        seen: Set[Tuple[str, str]] = set()
        for op in block_operators(plan):
            for alias, name in op.layout.entries:
                seen.add((alias, name))
                if label != STAR:
                    assert (alias, name) in read, (
                        f"{op.describe()} carries {alias}.{name}, which the "
                        f"statement never reads"
                    )
        if label == STAR:
            everything = {
                (alias, column.name.lower())
                for alias, table in tables.items()
                for column in table.schema.columns
            }
            assert seen == everything
        else:
            assert seen, "walked no base column at all"


def test_predicate_only_columns_stop_at_the_filter(tiny_system, sql_by_label):
    """``q1.DESC`` is read by the keyword predicate alone: the scan emits
    it, the filter above drops it, no join ever gathers a TEXT column."""
    plan, _ = tiny_system.engine.planner.plan(parse(sql_by_label["full-top"]))
    carrying = [
        op.describe().split("(")[0]
        for op in block_operators(plan)
        if ("q1", "desc") in op.layout.entries
    ]
    assert carrying == ["SeqScan"]


def test_unread_relation_and_constant_select_list(tiny_system):
    """A relation nothing is read from scans as zero-column rows — in
    both protocols, with the right row count."""
    engine = tiny_system.engine
    n = tiny_system.database.table("TopInfo").row_count
    for mode in (row_mode, columnar_mode):
        with mode():
            assert engine.execute("SELECT 1 AS ONE FROM TopInfo T").rows == [(1,)] * n
            both = engine.execute(
                "SELECT T.TID FROM TopInfo T WHERE EXISTS (SELECT 1 FROM ExcpTops X)"
            )
            assert len(both.rows) in (0, n)
