"""System-R optimizer: plan choice, interesting orders, and result
correctness against a canonical nested-loops evaluation."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.relational import Column, Database, StatsCatalog, TableSchema
from repro.relational.expressions import (
    ColumnRef,
    Comparison,
    Contains,
    Literal,
)
from repro.relational.operators import HashJoin, IndexNestedLoopJoin, NestedLoopJoin
from repro.relational.optimizer import SPJBlock, SystemROptimizer, build_block
from repro.relational.optimizer.logical import BaseRelation, equi_edges
from repro.relational.types import DataType
from repro.errors import OptimizerError


@pytest.fixture(scope="module")
def db():
    rng = random.Random(11)
    db = Database("opt")
    big = db.create_table(
        TableSchema(
            "Big",
            [
                Column("ID", DataType.INT, True),
                Column("FK", DataType.INT),
                Column("TAG", DataType.TEXT),
            ],
            primary_key="ID",
        )
    )
    big.create_hash_index("by_fk", ["FK"])
    big.bulk_load(
        [(i, rng.randint(1, 40), rng.choice(["hot", "cold"])) for i in range(1, 801)]
    )
    small = db.create_table(
        TableSchema(
            "Small",
            [Column("ID", DataType.INT, True), Column("NAME", DataType.TEXT)],
            primary_key="ID",
        )
    )
    small.create_sorted_index("by_name", "NAME")
    small.bulk_load([(i, f"name{i:02d}") for i in range(1, 41)])
    return db


@pytest.fixture(scope="module")
def optimizer(db):
    stats = StatsCatalog(db)
    stats.refresh()
    return SystemROptimizer(db, stats)


def reference_join(db, block: SPJBlock):
    """Brute-force evaluation of a block for correctness checks."""
    tables = [list(db.table(rel.table).rows) for rel in block.relations]
    layout_entries = []
    for rel in block.relations:
        for col in db.table(rel.table).schema.columns:
            layout_entries.append((rel.alias, col.name))
    from repro.relational.expressions import RowLayout, conjoin, is_truthy

    layout = RowLayout(layout_entries)
    all_preds = list(block.join_conjuncts)
    for rel in block.relations:
        all_preds.extend(rel.local_predicates)
    pred = conjoin(all_preds)
    fn = pred.bind(layout) if pred is not None else None
    out = []
    for combo in itertools.product(*tables):
        row = tuple(x for part in combo for x in part)
        if fn is None or is_truthy(fn(row)):
            out.append(row)
    return out


def project_common(rows, layout, entries):
    positions = [layout.position(a, c) for a, c in entries]
    return sorted(tuple(row[p] for p in positions) for row in rows)


class TestPlanChoice:
    def test_selective_eq_uses_index(self, db, optimizer):
        block = build_block(
            [("Small", "s")],
            [Comparison("=", ColumnRef("s", "id"), Literal(7))],
        )
        cand = optimizer.optimize(block)
        assert "HashIndexScan" in cand.build(None).explain()

    def test_unselective_uses_seq_scan(self, db, optimizer):
        block = build_block(
            [("Big", "b")],
            [Comparison("=", ColumnRef("b", "tag"), Literal("hot"))],
        )
        cand = optimizer.optimize(block)
        assert "SeqScan" in cand.build(None).explain()

    def test_join_prefers_index_or_hash(self, db, optimizer):
        block = build_block(
            [("Big", "b"), ("Small", "s")],
            [Comparison("=", ColumnRef("b", "fk"), ColumnRef("s", "id"))],
        )
        cand = optimizer.optimize(block)
        assert isinstance(cand.build(None), (HashJoin, IndexNestedLoopJoin))

    def test_desired_order_returns_ordered_candidate(self, db, optimizer):
        block = build_block([("Small", "s")], [])
        cand = optimizer.optimize(block, desired_order=("s", "name", False))
        assert cand.order == ("s", "name", False)

    def test_desired_order_ignored_when_absent(self, db, optimizer):
        block = build_block([("Big", "b")], [])
        cand = optimizer.optimize(block, desired_order=("b", "tag", False))
        assert cand.order is None

    def test_cross_product_without_conjuncts(self, db, optimizer):
        block = build_block([("Small", "s"), ("Small", "s2")], [])
        cand = optimizer.optimize(block)
        assert isinstance(cand.build(None), NestedLoopJoin)


class TestPlanCorrectness:
    @pytest.mark.parametrize(
        "conjuncts",
        [
            [],
            [Comparison("=", ColumnRef("b", "tag"), Literal("hot"))],
        ],
        ids=["no-filter", "filtered"],
    )
    def test_two_way_join_matches_reference(self, db, optimizer, conjuncts):
        block = build_block(
            [("Big", "b"), ("Small", "s")],
            conjuncts
            + [Comparison("=", ColumnRef("b", "fk"), ColumnRef("s", "id"))],
        )
        cand = optimizer.optimize(block)
        plan = cand.build()
        expected = reference_join(db, block)
        entries = [("b", "id"), ("s", "id")]
        from repro.relational.expressions import RowLayout

        ref_layout_entries = []
        for rel in block.relations:
            for col in db.table(rel.table).schema.columns:
                ref_layout_entries.append((rel.alias, col.name))
        ref_layout = RowLayout(ref_layout_entries)
        assert project_common(plan.run(), plan.layout, entries) == project_common(
            expected, ref_layout, entries
        )

    def test_three_way_join_matches_reference(self, db, optimizer):
        block = build_block(
            [("Big", "b"), ("Small", "s"), ("Big", "b2")],
            [
                Comparison("=", ColumnRef("b", "fk"), ColumnRef("s", "id")),
                Comparison("=", ColumnRef("b2", "fk"), ColumnRef("s", "id")),
                Comparison("=", ColumnRef("b", "id"), Literal(5)),
            ],
        )
        cand = optimizer.optimize(block)
        plan = cand.build()
        expected = reference_join(db, block)
        entries = [("b", "id"), ("s", "id"), ("b2", "id")]
        from repro.relational.expressions import RowLayout

        ref_layout_entries = []
        for rel in block.relations:
            for col in db.table(rel.table).schema.columns:
                ref_layout_entries.append((rel.alias, col.name))
        ref_layout = RowLayout(ref_layout_entries)
        assert project_common(plan.run(), plan.layout, entries) == project_common(
            expected, ref_layout, entries
        )

    def test_theta_join_matches_reference(self, db, optimizer):
        block = build_block(
            [("Small", "s"), ("Small", "s2")],
            [Comparison("<", ColumnRef("s", "id"), ColumnRef("s2", "id"))],
        )
        cand = optimizer.optimize(block)
        rows = cand.build().run()
        assert len(rows) == 40 * 39 // 2


class TestLogicalHelpers:
    def test_build_block_distributes_predicates(self):
        local = Comparison("=", ColumnRef("a", "x"), Literal(1))
        join = Comparison("=", ColumnRef("a", "x"), ColumnRef("b", "y"))
        block = build_block([("T1", "a"), ("T2", "b")], [local, join])
        assert block.relation("a").local_predicates == [local]
        assert block.join_conjuncts == [join]

    def test_build_block_rejects_unknown_alias(self):
        stray = Comparison("=", ColumnRef("zz", "x"), Literal(1))
        with pytest.raises(OptimizerError):
            build_block([("T1", "a")], [stray])

    def test_duplicate_alias_rejected(self):
        with pytest.raises(OptimizerError):
            SPJBlock([BaseRelation("T", "a"), BaseRelation("T", "a")])

    def test_equi_edges(self):
        join = Comparison("=", ColumnRef("a", "x"), ColumnRef("b", "y"))
        theta = Comparison("<", ColumnRef("a", "x"), ColumnRef("b", "y"))
        block = build_block([("T1", "a"), ("T2", "b")], [join, theta])
        edges = equi_edges(block)
        assert len(edges) == 1
        assert edges[0].left_alias == "a" and edges[0].right_column == "y"
