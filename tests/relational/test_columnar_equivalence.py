"""Differential proof that the columnar engine is bit-identical to the
row engine.

The batched columnar executor (``next_batch`` protocol, numpy-backed
where available) and the retained Volcano row executor (``next``) are
run over the *same* operator trees / SQL statements / full systems, and
every answer is asserted **exactly** equal: identical row tuples in
identical order, identical ``state_digest()`` for full offline builds,
and matching answers from all nine query methods.  Workloads come from
the seeded generator in ``tests/difftest/gen.py``; any failure message
carries the seed, so a discrepancy reproduces deterministically.

The number of random seeds is ``--difftest-seeds N`` (default 5;
CI's nightly-style step runs 25).

DGJ-family operators (IDGJ, HDGJ, FirstPerGroup) are row-native in both
modes — the batch protocol transparently downgrades their subtree — so
their differential coverage comes from the nine-method test, which
drives them through real method plans.
"""

from __future__ import annotations

import math
import subprocess
import sys
from pathlib import Path

import pytest

from difftest.gen import gen_database, gen_expression, gen_queries, make_rng
from repro.biozon import build_figure3_database
from repro.core import TopologySearchSystem
from repro.core.methods import ALL_METHOD_NAMES, create_method
from repro.relational import (
    Column,
    Database,
    DataType,
    Engine,
    TableSchema,
    columnar_mode,
    row_mode,
)
from repro.relational.column import BATCH_SIZE, HAVE_NUMPY, Batch
from repro.relational.expressions import ColumnRef, Comparison, Literal, RowLayout
from repro.relational.operators import (
    Distinct,
    Filter,
    HashIndexScan,
    HashJoin,
    HashSemiJoin,
    IndexNestedLoopJoin,
    Limit,
    NestedLoopJoin,
    OrderedIndexScan,
    Project,
    RowsSource,
    SeqScan,
    Sort,
    SortMergeJoin,
    TopN,
    UnionAll,
)


def run_both(build, seed=None):
    """Build + run an operator tree once per mode; assert equal rows."""
    with row_mode():
        expected = build().run()
    with columnar_mode():
        actual = build().run()
    assert actual == expected, f"seed={seed}: columnar differs from row engine"
    return expected


# ----------------------------------------------------------------------
# Per-operator coverage (hand-built trees over generated data)
# ----------------------------------------------------------------------
class TestOperatorEquivalence:
    @pytest.fixture(scope="class")
    def workload(self):
        rng = make_rng(1234)
        db, tables = gen_database(rng, n_tables=2)
        return db, tables, rng

    def test_seq_scan(self, workload):
        db, tables, _ = workload
        rows = run_both(lambda: SeqScan(db.table("t0"), "t0", db.stats))
        assert len(rows) == db.table("t0").row_count

    def test_filter_random_predicates(self, workload):
        db, tables, _ = workload
        for seed in range(30):
            rng = make_rng(seed)
            pred = gen_expression(rng, tables["t0"], depth=3)
            run_both(
                lambda: Filter(SeqScan(db.table("t0"), "t0", db.stats), pred),
                seed=seed,
            )

    def test_project_random_scalars(self, workload):
        db, tables, _ = workload
        from difftest.gen import _gen_scalar

        for seed in range(20):
            rng = make_rng(1000 + seed)
            exprs = [
                _gen_scalar(rng, tables["t0"], depth=2)[0] for _ in range(3)
            ]
            run_both(
                lambda: Project(
                    SeqScan(db.table("t0"), "t0", db.stats),
                    exprs,
                    [f"e{i}" for i in range(len(exprs))],
                ),
                seed=seed,
            )

    def test_hash_index_scan(self, workload):
        db, tables, _ = workload
        table = db.table("t0")
        index = table.hash_index_on(["id"])
        for key in (0, 7, 99_999):  # present, present, absent
            run_both(lambda: HashIndexScan(table, "t0", index, (key,), db.stats))

    def test_ordered_index_scan(self, workload):
        db, tables, _ = workload
        table = db.table("t0")
        sorted_index = table.create_sorted_index("sx_equiv_id", "ID")
        for descending in (False, True):
            run_both(
                lambda: OrderedIndexScan(
                    table, "t0", sorted_index, descending, stats=db.stats
                )
            )

    def _join_inputs(self, db):
        left = SeqScan(db.table("t1"), "t1", db.stats)
        right = SeqScan(db.table("t0"), "t0", db.stats)
        lpos = left.layout.position("t1", "ref")
        rpos = right.layout.position("t0", "id")
        return left, right, lpos, rpos

    def test_hash_join(self, workload):
        db, tables, _ = workload

        def build():
            left, right, lpos, rpos = self._join_inputs(db)
            return HashJoin(left, right, [lpos], [rpos])

        rows = run_both(build)
        assert rows  # the REF -> ID relationship guarantees matches

    def test_hash_join_with_residual(self, workload):
        db, tables, _ = workload
        for seed in range(10):
            rng = make_rng(2000 + seed)
            residual = gen_expression(rng, tables["t1"] + tables["t0"], depth=2)

            def build():
                left, right, lpos, rpos = self._join_inputs(db)
                return HashJoin(left, right, [lpos], [rpos], residual)

            run_both(build, seed=seed)

    def test_index_nested_loop_join(self, workload):
        db, tables, _ = workload
        table = db.table("t0")
        index = table.hash_index_on(["id"])

        def build():
            left = SeqScan(db.table("t1"), "t1", db.stats)
            lpos = left.layout.position("t1", "ref")
            return IndexNestedLoopJoin(left, table, "t0", index, [lpos])

        rows = run_both(build)
        assert rows

    def test_nested_loop_join(self, workload):
        db, tables, _ = workload

        def build():
            left, right, lpos, rpos = self._join_inputs(db)
            pred = Comparison(
                "<", ColumnRef("t1", "ref"), ColumnRef("t0", "id")
            )
            return NestedLoopJoin(Limit(left, 20), Limit(right, 20), pred)

        run_both(build)

    def test_sort_merge_join(self, workload):
        db, tables, _ = workload

        def build():
            left, right, lpos, rpos = self._join_inputs(db)
            return SortMergeJoin(left, right, [lpos], [rpos])

        rows = run_both(build)
        assert rows

    def test_hash_semi_and_anti_join(self, workload):
        db, tables, _ = workload
        for negated in (False, True):

            def build(negated=negated):
                left, right, lpos, rpos = self._join_inputs(db)
                return HashSemiJoin(
                    left, Filter(right, Comparison("<", ColumnRef("t0", "id"), Literal(30))),
                    [lpos], [rpos], negated,
                )

            run_both(build)

    def test_sort_topn_distinct_union_limit(self, workload):
        db, tables, _ = workload
        keys = [(ColumnRef("t0", "id"), True)]

        def scan():
            return SeqScan(db.table("t0"), "t0", db.stats)

        run_both(lambda: Sort(scan(), keys))
        run_both(lambda: TopN(scan(), keys, 7))
        run_both(lambda: TopN(scan(), keys, 0))
        run_both(lambda: Distinct(Project(scan(), [ColumnRef("t0", "id")], ["id"])))
        run_both(lambda: UnionAll([scan(), Limit(scan(), 5), scan()]))
        run_both(lambda: Limit(scan(), 13))
        run_both(lambda: Limit(scan(), 0))

    def test_rows_source_and_empty_inputs(self, workload):
        db, tables, _ = workload
        layout = RowLayout([("x", "a"), ("x", "b")])
        data = [(1, "u"), (2, None), (3, "w")]
        run_both(lambda: RowsSource(list(data), layout, db.stats))
        run_both(lambda: RowsSource([], layout, db.stats))
        run_both(
            lambda: Filter(
                RowsSource(list(data), layout, db.stats),
                Comparison("=", ColumnRef("x", "a"), Literal(99)),
            )
        )


# ----------------------------------------------------------------------
# Multi-column DISTINCT: the columnar kernel against the row engine
# ----------------------------------------------------------------------
_DISTINCT_COLUMNS = [
    Column("ID", DataType.INT, True),
    Column("G", DataType.INT, True),  # eight groups: heavy duplicates
    Column("F", DataType.FLOAT, True),  # mostly G * 0.5
    Column("B", DataType.BOOL, True),
    Column("Z", DataType.FLOAT, True),  # 0.0, -0.0 and 2.0
    Column("N", DataType.FLOAT, True),  # NaN-bearing
    Column("T", DataType.TEXT, False),  # TEXT with NULLs
]


def _distinct_db(seed):
    """A table over two batches and more, numpy-backed on G/F/B/Z/N."""
    rng = make_rng(seed)
    db = Database("distinct")
    table = db.create_table(TableSchema("d", _DISTINCT_COLUMNS, primary_key="ID"))
    for i in range(2 * BATCH_SIZE + rng.randint(1, 500)):
        g = rng.randrange(8)
        table.insert((
            i,
            g,
            g * 0.5 if rng.random() < 0.9 else -1.0,
            rng.random() < 0.5,
            rng.choice((0.0, -0.0, 2.0)),
            float("nan") if i == 0 or rng.random() < 0.01 else float(rng.randrange(3)),
            rng.choice(("a", "b", None)),
        ))
    return db


def _distinct_of(db, names, extra_rows=None):
    """``Distinct(Project(scan, names))``, unioned with a list-backed
    ``RowsSource`` of ``extra_rows`` when given."""

    def build():
        source = Project(
            SeqScan(db.table("d"), "d", db.stats),
            [ColumnRef("d", n) for n in names],
            list(names),
        )
        if extra_rows is not None:
            layout = RowLayout([("x", n) for n in names])
            source = UnionAll([source, RowsSource(list(extra_rows), layout, db.stats)])
        return Distinct(source)

    return build


def _run_both_exact(build, seed):
    """``run_both`` compared by ``repr``: tells ``-0.0`` from ``0.0``
    and matches NaN rows, which ``==`` cannot."""
    with row_mode():
        expected = build().run()
    with columnar_mode():
        actual = build().run()
    assert repr(actual) == repr(expected), f"seed={seed}"
    return expected


def test_multi_column_distinct_matches_row_engine(difftest_seeds):
    for seed in difftest_seeds:
        db = _distinct_db(seed)
        if HAVE_NUMPY:
            store = db.table("d").store
            assert all(store.array(p) is not None for p in range(1, 6))
            assert store.array(6) is None
        for names in (("g", "f"), ("f", "b"), ("g", "f", "b"), ("b", "z", "g")):
            rows = _run_both_exact(_distinct_of(db, names), seed)
            assert len(rows) < 50, f"seed={seed}: duplicates must collapse"
        # -0.0 and 0.0 are one value: the first occurrence's sign stays.
        _run_both_exact(_distinct_of(db, ("z",)), seed)
        _run_both_exact(_distinct_of(db, ("g", "z")), seed)
        # A NaN-bearing column and a TEXT/NULL column stand down.
        _run_both_exact(_distinct_of(db, ("g", "n")), seed)
        _run_both_exact(_distinct_of(db, ("g", "t")), seed)
        # One execution mixing a numpy child and a list-backed child.
        extra = [(3, 1.5), (99, 0.0), (3, 1.5), (0, -0.0), (99, 0.0)]
        rows = _run_both_exact(_distinct_of(db, ("g", "f"), extra), seed)
        assert rows[-1] == (99, 0.0), f"seed={seed}"

    def empty():
        scan = SeqScan(db.table("d"), "d", db.stats)
        negative = Filter(scan, Comparison("<", ColumnRef("d", "id"), Literal(0)))
        return Distinct(Project(negative, [ColumnRef("d", "g"), ColumnRef("d", "f")], ["g", "f"]))

    assert _run_both_exact(empty, None) == []


@pytest.mark.skipif(not HAVE_NUMPY, reason="the kernel needs numpy")
@pytest.mark.parametrize("with_nan", [False, True])
def test_numeric_distinct_never_builds_every_row(monkeypatch, with_nan):
    """A numpy-backed (INT, FLOAT) DISTINCT turns only its first
    occurrences into tuples: ``Batch.to_rows`` is never called.  One NaN
    makes its batch stand down to the tuple loop."""
    rng = make_rng(5)
    db = Database("distinct_fast")
    table = db.create_table(TableSchema("d", _DISTINCT_COLUMNS[:3], primary_key="ID"))
    for i in range(10_000):
        g = rng.randrange(10)
        table.insert((i, g, g * 0.25))
    if with_nan:
        table.insert((10_000, 0, float("nan")))
    calls = []
    real_to_rows = Batch.to_rows

    def counting(batch):
        calls.append(batch.length)
        return real_to_rows(batch)

    monkeypatch.setattr(Batch, "to_rows", counting)
    with columnar_mode():
        out = Distinct(
            Project(
                SeqScan(table, "d", db.stats),
                [ColumnRef("d", "g"), ColumnRef("d", "f")],
                ["g", "f"],
            )
        ).drain_batch()
    rows = real_to_rows(out)
    if with_nan:
        assert len(calls) == 1 and math.isnan(rows[-1][1])  # the last batch
        rows = rows[:-1]
    else:
        assert calls == []
    assert sorted(rows) == [(g, g * 0.25) for g in range(10)]


# ----------------------------------------------------------------------
# Random end-to-end SQL through the real parser/optimizer/executor
# ----------------------------------------------------------------------
def test_random_sql_end_to_end(difftest_seeds):
    for seed in difftest_seeds:
        rng = make_rng(seed)
        db, tables = gen_database(rng, n_tables=rng.randint(1, 3))
        engine = Engine(db)
        for i, sql in enumerate(gen_queries(rng, tables, count=6)):
            with row_mode():
                expected = engine.execute(sql)
            with columnar_mode():
                actual = engine.execute(sql)
            assert actual.columns == expected.columns, (
                f"seed={seed} query#{i}: column names differ\n  {sql}"
            )
            assert actual.rows == expected.rows, (
                f"seed={seed} query#{i}: rows differ "
                f"({len(actual.rows)} vs {len(expected.rows)})\n  {sql}"
            )


def test_nullable_indexed_join_agrees_across_join_methods(difftest_seeds):
    """``t1.link = t0.link`` over NULL-bearing, usually indexed columns:
    the four join methods, in both modes, against a nested loop written
    here — NULL never joins, whichever method runs."""
    for seed in difftest_seeds:
        db, _ = gen_database(make_rng(seed), n_tables=2)
        t0, t1 = db.table("t0"), db.table("t1")
        index = t0.hash_index_on(["link"]) or t0.create_hash_index("hx_equiv_link", ["LINK"])
        p0 = t0.schema.column_position("link")
        p1 = t1.schema.column_position("link")
        expected = sorted(
            outer + inner
            for outer in t1.rows
            for inner in t0.rows
            if outer[p1] is not None and outer[p1] == inner[p0]
        )
        assert expected and any(row[p0] is None for row in t0.rows), f"seed={seed}"

        def scan(table, alias):
            return SeqScan(table, alias, db.stats)

        builders = {
            "inlj": lambda: IndexNestedLoopJoin(scan(t1, "t1"), t0, "t0", index, [p1]),
            "hash": lambda: HashJoin(scan(t1, "t1"), scan(t0, "t0"), [p1], [p0]),
            "merge": lambda: SortMergeJoin(scan(t1, "t1"), scan(t0, "t0"), [p1], [p0]),
            "loops": lambda: NestedLoopJoin(
                scan(t1, "t1"),
                scan(t0, "t0"),
                Comparison("=", ColumnRef("t1", "link"), ColumnRef("t0", "link")),
            ),
        }
        for name, build in builders.items():
            rows = run_both(build, seed=seed)
            assert sorted(rows) == expected, f"seed={seed}: {name} join"


def test_random_sql_repeated_executions_hit_plan_cache(difftest_seeds):
    """Same statement twice in columnar mode: second run is served by
    the prepared-statement cache and must be byte-identical."""
    seed = difftest_seeds[0]
    rng = make_rng(seed)
    db, tables = gen_database(rng, n_tables=2)
    engine = Engine(db)
    for sql in gen_queries(rng, tables, count=4):
        with columnar_mode():
            first = engine.execute(sql)
            hits_before = engine.statement_cache_stats().hits
            second = engine.execute(sql)
        assert engine.statement_cache_stats().hits == hits_before + 1, sql
        assert second.rows == first.rows, f"seed={seed}: cached plan diverged\n  {sql}"


# ----------------------------------------------------------------------
# Full-system equivalence: offline build digest + the nine methods
# ----------------------------------------------------------------------
def _build_fig3_system():
    system = TopologySearchSystem(build_figure3_database())
    system.build([("Protein", "DNA")], max_length=3)
    return system


def test_state_digest_identical_across_modes():
    """A full offline build must produce the same SHA-256 state digest
    whichever executor performed it."""
    with row_mode():
        row_digest = _build_fig3_system().require_store().state_digest()
    with columnar_mode():
        col_digest = _build_fig3_system().require_store().state_digest()
    assert col_digest == row_digest


@pytest.mark.parametrize(
    "fixture, dna_type, proves_empty",
    [
        ("fig3_system", None, False),
        # On the tiny store the pruned (Protein, DNA) topology's check is
        # provably empty under TYPE = 'EST': the reducer answers it in
        # both modes, and every method must still agree.
        ("tiny_system", "EST", True),
    ],
)
def test_nine_methods_agree_across_modes(request, fixture, dna_type, proves_empty):
    from repro.core import (
        AttributeConstraint,
        KeywordConstraint,
        NoConstraint,
        TopologyQuery,
    )
    from repro.core.methods import METHOD_CLASSES

    system = request.getfixturevalue(fixture)
    first = KeywordConstraint("DESC", "human")
    second = NoConstraint() if dna_type is None else AttributeConstraint("TYPE", dna_type)
    plain = TopologyQuery("Protein", "DNA", first, second)
    topk = TopologyQuery("Protein", "DNA", first, second, k=3)
    answers = {}
    for name in ALL_METHOD_NAMES:
        query = topk if METHOD_CLASSES[name].is_topk else plain
        with row_mode():
            expected = create_method(name, system).run(query)
        with columnar_mode():
            actual = create_method(name, system).run(query)
        assert actual.tids == expected.tids, f"method {name}: TIDs differ"
        assert actual.scores == expected.scores, f"method {name}: scores differ"
        if name.startswith("fast-"):
            for result in (expected, actual):
                proved = result.work["pruned_checks_proved_empty"]
                assert (proved > 0) == proves_empty, f"method {name}"
        answers[name] = actual.tids
    assert answers["fast-top"] == answers["full-top"] == answers["sql"]
    assert len({tuple(answers[n]) for n in ALL_METHOD_NAMES if METHOD_CLASSES[n].is_topk}) == 1


# ----------------------------------------------------------------------
# Engine plan cache semantics
# ----------------------------------------------------------------------
class TestPlanCache:
    def _engine(self):
        rng = make_rng(7)
        db, tables = gen_database(rng, n_tables=1, rows_per_table=30)
        return Engine(db), db

    def test_hit_then_invalidation_on_insert(self):
        engine, db = self._engine()
        sql = "SELECT t0.id FROM t0 WHERE t0.id < 10 ORDER BY t0.id"
        with columnar_mode():
            first = engine.execute(sql)
            assert engine.execute(sql).rows == first.rows
            assert engine.statement_cache_stats().hits == 1
            # Any data change flips the change token: replan, new rows.
            schema = db.table("t0").schema
            row = [None] * len(schema.columns)
            row[0] = 5_000_000
            for i, col in enumerate(schema.columns[1:], start=1):
                from difftest.gen import _gen_value

                row[i] = _gen_value(make_rng(0), col.dtype, False)
            db.table("t0").insert(tuple(row))
            hits = engine.statement_cache_stats().hits
            engine.execute(sql)
            assert engine.statement_cache_stats().hits == hits  # miss, not a stale hit

    def test_invalidation_on_catalog_change(self):
        engine, db = self._engine()
        sql = "SELECT t0.id FROM t0 FETCH FIRST 3 ROWS ONLY"
        with columnar_mode():
            engine.execute(sql)
            from repro.relational import Column, DataType, TableSchema

            db.create_table(
                TableSchema("other", [Column("ID", DataType.INT, True)], "ID")
            )
            hits = engine.statement_cache_stats().hits
            engine.execute(sql)
            assert engine.statement_cache_stats().hits == hits

    def test_row_mode_bypasses_cache(self):
        engine, _ = self._engine()
        sql = "SELECT t0.id FROM t0 FETCH FIRST 3 ROWS ONLY"
        with row_mode():
            engine.execute(sql)
            engine.execute(sql)
        assert engine.statement_cache_stats().hits == 0
        assert engine.statement_cache_stats().misses == 0

    def test_bindings_of_one_class_share_one_plan(self):
        """Equality estimates 1/ndv whatever the value, so every key is
        one class: the second binding reuses the first's plan and still
        gets its own rows."""
        engine, _ = self._engine()
        sql = "SELECT t0.id FROM t0 WHERE t0.id = :key"
        with columnar_mode():
            a = engine.execute(sql, {"key": 1})
            b = engine.execute(sql, {"key": 2})
            assert engine.statement_cache_stats().hits == 1
            a2 = engine.execute(sql, {"key": 1})
        assert (a.rows, b.rows, a2.rows) == ([(1,)], [(2,)], [(1,)])
        assert engine.statement_cache_stats().hits == 2
        assert engine.statement_cache_stats().classes == 1


# ----------------------------------------------------------------------
# numpy-optional: the engine must agree with itself without numpy
# ----------------------------------------------------------------------
_NO_NUMPY_SNIPPET = """
import json, sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {tests!r})
from difftest.gen import gen_database, gen_queries, make_rng
from repro.relational import Engine, HAVE_NUMPY
rng = make_rng({seed})
db, tables = gen_database(rng, n_tables=2, rows_per_table=40)
engine = Engine(db)
out = [repr(engine.execute(sql).rows) for sql in gen_queries(rng, tables, count=5)]
print(json.dumps({{"have_numpy": HAVE_NUMPY, "results": out}}))
"""


def test_numpy_and_fallback_paths_agree(difftest_seeds, tmp_path):
    """Run the same seeded workload in two subprocesses — one with
    REPRO_NO_NUMPY=1 — and require identical results.  Verifies the
    list-backed fallback independently of whether this interpreter has
    numpy at all (if it doesn't, both runs use the fallback and the test
    degenerates to a determinism check, which CI's numpy leg covers)."""
    import os

    repo = Path(__file__).resolve().parents[2]
    seed = difftest_seeds[0]
    snippet = _NO_NUMPY_SNIPPET.format(
        src=str(repo / "src"), tests=str(repo / "tests"), seed=seed
    )

    def run(no_numpy: bool):
        env = dict(os.environ)
        env.pop("REPRO_NO_NUMPY", None)
        if no_numpy:
            env["REPRO_NO_NUMPY"] = "1"
        proc = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        import json

        return json.loads(proc.stdout)

    with_numpy = run(no_numpy=False)
    without = run(no_numpy=True)
    assert without["have_numpy"] is False
    assert without["results"] == with_numpy["results"], f"seed={seed}"
