"""The equi-join probe kernel against the per-key loop it replaces.

``probe_pairs`` answers an outer batch either with the sorted-key
kernel (``CsrKeys``: searchsorted + repeat over int64 arrays) or with
the per-key loop over a dict of buckets.  Both must return the same
(outer position, inner position) pairs in the same order — outer order,
then the inner's insertion order — and the joins built on them the same
rows and the same ``index_probes`` / ``rows_joined``, which a brute-force
nested loop written here checks independently.  Under
``REPRO_NO_NUMPY=1`` there is no kernel and both runs take the loop:
the comparison with the brute force still holds.
"""

from __future__ import annotations

import contextlib
from typing import Any, List, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import (
    Column,
    Database,
    DataType,
    Engine,
    TableSchema,
    columnar_mode,
    row_mode,
)
from repro.relational.column import HAVE_NUMPY, Batch, ColumnStore
from repro.relational.expressions import ColumnRef, Comparison, RowLayout
from repro.relational.index import HashIndex
from repro.relational.operators import (
    HashJoin,
    HashSemiJoin,
    IndexNestedLoopJoin,
    NestedLoopJoin,
    RowsSource,
    SeqScan,
    SortMergeJoin,
)
from repro.relational.operators import join as join_module
from repro.relational.operators.join import _BuildSide, probe_pairs

BEYOND_INT64 = 2**63 + 5


@contextlib.contextmanager
def probe_threshold(rows: int):
    """Pin ``ARRAY_PROBE_MIN_ROWS``: 0 sends every eligible batch to the
    kernel, a huge value sends every batch to the per-key loop."""
    before = join_module.ARRAY_PROBE_MIN_ROWS
    join_module.ARRAY_PROBE_MIN_ROWS = rows
    try:
        yield
    finally:
        join_module.ARRAY_PROBE_MIN_ROWS = before


KERNEL, LOOP = 0, 10**12


def column(values: Sequence[Any]):
    """What a scan would hand out for these values: an int64/bool array
    when numpy can hold them all, else the list."""
    store = ColumnStore([DataType.BOOL if _all_bool(values) else DataType.INT])
    store.extend_rows((v,) for v in values)
    array = store.array(0)
    return list(values) if array is None else array


def _all_bool(values: Sequence[Any]) -> bool:
    return bool(values) and all(isinstance(v, bool) for v in values)


def brute_force(probe: Sequence[Any], build: Sequence[Any]) -> List[Tuple[int, int]]:
    return [
        (i, j)
        for i, key in enumerate(probe)
        for j, other in enumerate(build)
        if key is not None and other is not None and key == other
    ]


def pairs_of(result) -> List[Tuple[int, int]]:
    outer, inner = result
    as_list = lambda x: x.tolist() if hasattr(x, "tolist") else list(x)  # noqa: E731
    return list(zip(as_list(outer), as_list(inner)))


small_ints = st.integers(min_value=-6, max_value=6)
keys = st.one_of(small_ints, small_ints, st.booleans())


@st.composite
def key_lists(draw, max_size: int):
    """Mostly clean int/bool key lists (what the kernel takes), some
    all-bool, some spoiled by NULLs or by a key beyond int64 (what must
    fall back)."""
    flavor = draw(st.sampled_from(["clean", "clean", "bool", "nulls", "huge"]))
    element = st.booleans() if flavor == "bool" else keys
    if flavor == "nulls":
        element = st.one_of(keys, keys, st.none())
    values = draw(st.lists(element, max_size=max_size))
    if flavor == "huge":
        values.insert(draw(st.integers(0, len(values))), BEYOND_INT64)
    return values


def bulk_load(index: HashIndex, rows: Sequence[Tuple[Any, ...]]) -> HashIndex:
    """Rebuild ``index`` over ``rows`` the way a table does: from its
    column store."""
    store = ColumnStore([DataType.INT] * (max(index.column_positions) + 1))
    store.extend_rows(rows)
    index.bulk_build_columns(store)
    return index


def index_over(values: Sequence[Any]) -> HashIndex:
    return bulk_load(HashIndex("hx", [0]), [(v,) for v in values])


class TestKernelAgainstLoop:
    @settings(max_examples=150, deadline=None)
    @given(build=key_lists(40), probe=key_lists(60))
    def test_same_pairs_same_order(self, build, probe):
        expected = brute_force(probe, build)
        batch = Batch([column(probe)], len(probe))
        for inner in (
            index_over(build),
            _BuildSide((0,), batch=Batch([column(build)], len(build))),
        ):
            with probe_threshold(KERNEL):
                assert pairs_of(probe_pairs(batch, (0,), inner)) == expected
            with probe_threshold(LOOP):
                assert pairs_of(probe_pairs(batch, (0,), inner)) == expected

    def test_kernel_is_what_runs(self):
        """The property above is vacuous if nothing reaches the kernel."""
        index = index_over([3, 1, 3, None, True])
        probe = Batch([column([1, 3, 5])], 3)
        with probe_threshold(KERNEL):
            outer, _ = probe_pairs(probe, (0,), index)
        assert (index.key_arrays() is not None) == HAVE_NUMPY
        assert hasattr(outer, "dtype") == HAVE_NUMPY

    def test_fallbacks(self):
        """No key arrays for what int64 cannot hold; list-backed probe
        columns never reach them."""
        assert index_over([1, BEYOND_INT64]).key_arrays() is None
        assert index_over(["a", "b"]).key_arrays() is None
        assert index_over([1.5, 2.0]).key_arrays() is None
        composite = bulk_load(HashIndex("hx2", [0, 1]), [(1, 2), (1, None)])
        assert composite.key_arrays() is None
        with probe_threshold(KERNEL):
            nullable = Batch([[1, None, 1]], 3)
            assert pairs_of(probe_pairs(nullable, (0,), index_over([1, None]))) == [
                (0, 0),
                (2, 0),
            ]
            two_keys = Batch([[1, 1], [2, None]], 2)
            assert pairs_of(probe_pairs(two_keys, (0, 1), composite)) == [(0, 0)]

    def test_short_batches_take_the_loop(self):
        index = index_over(list(range(100)))
        short = Batch([column([5])], 1)
        n = join_module.ARRAY_PROBE_MIN_ROWS
        long = Batch([column(list(range(n)))], n)
        assert isinstance(probe_pairs(short, (0,), index)[0], list)
        assert isinstance(probe_pairs(long, (0,), index)[0], list) != HAVE_NUMPY

    def test_key_arrays_follow_the_index(self):
        """An insert after a probe is seen by the next probe."""
        index = index_over([7, 8])
        probe = Batch([column([9, 7])], 2)
        with probe_threshold(KERNEL):
            assert pairs_of(probe_pairs(probe, (0,), index)) == [(1, 0)]
            first = index.key_arrays()
            index.insert((9,), 2)
            assert pairs_of(probe_pairs(probe, (0,), index)) == [(0, 2), (1, 0)]
            assert HAVE_NUMPY is False or index.key_arrays() is not first
            bulk_load(index, [(9,), (9,)])
            assert pairs_of(probe_pairs(probe, (0,), index)) == [(0, 0), (0, 1)]


# ----------------------------------------------------------------------
# The operators built on it: rows and counters
# ----------------------------------------------------------------------
def _database(a_keys: Sequence[Any], b_keys: Sequence[Any]) -> Database:
    db = Database("probe")
    for name, key_column, values in (("A", "X", a_keys), ("B", "Y", b_keys)):
        table = db.create_table(
            TableSchema(
                name,
                [
                    Column("ID", DataType.INT, True),
                    Column(key_column, DataType.INT),
                    Column("NOTE", DataType.TEXT),
                ],
                primary_key="ID",
            )
        )
        for i, value in enumerate(values):
            table.insert((i, value, None if i % 3 == 0 else f"{name.lower()}{i}"))
    db.table("B").create_hash_index("hx_b_y", ["Y"])
    return db


def _run(build, mode, threshold) -> Tuple[list, int, int]:
    with mode(), probe_threshold(threshold):
        op = build()
        before = op.stats.snapshot()
        rows = op.run()
        after = op.stats.snapshot()
    return (
        rows,
        after["index_probes"] - before["index_probes"],
        after["rows_joined"] - before["rows_joined"],
    )


table_keys = st.lists(st.one_of(small_ints, st.none()), min_size=0, max_size=50)


class TestJoinsOverTheKernel:
    @settings(max_examples=40, deadline=None)
    @given(a_keys=table_keys, b_keys=table_keys, nullable_outer=st.booleans())
    def test_rows_and_counters(self, a_keys, b_keys, nullable_outer):
        if not nullable_outer:  # a NULL-free outer column is what scans as an array
            a_keys = [k for k in a_keys if k is not None]
        db = _database(a_keys, b_keys)
        a, b = db.table("A"), db.table("B")
        expected = [
            a.row_at(i) + b.row_at(j) for i, j in brute_force(a_keys, b_keys)
        ]
        builders = {
            "inlj": lambda: IndexNestedLoopJoin(
                SeqScan(a, "a", db.stats), b, "b", b.hash_index_on(["Y"]), [1]
            ),
            "hash": lambda: HashJoin(
                SeqScan(a, "a", db.stats), SeqScan(b, "b", db.stats), [1], [1]
            ),
        }
        for name, build in builders.items():
            reference = _run(build, row_mode, LOOP)
            assert reference[0] == expected, name
            assert reference[1] == (len(a_keys) if name == "inlj" else 0)
            assert reference[2] == len(expected)
            assert _run(build, columnar_mode, KERNEL) == reference, name
            assert _run(build, columnar_mode, LOOP) == reference, name

        matched = sorted({i for i, _ in brute_force(a_keys, b_keys)})
        for negated in (False, True):
            build = lambda: HashSemiJoin(  # noqa: E731
                SeqScan(a, "a", db.stats), SeqScan(b, "b", db.stats), [1], [1], negated
            )
            keep = [i for i in range(len(a_keys)) if (i in matched) != negated]
            reference = _run(build, row_mode, LOOP)
            assert reference[0] == [a.row_at(i) for i in keep]
            assert _run(build, columnar_mode, KERNEL) == reference
            assert _run(build, columnar_mode, LOOP) == reference

    def test_many_outer_batches_and_a_multi_batch_build(self):
        """More than ``BATCH_SIZE`` rows on both sides: the build side is
        concatenated from several batches, the outer arrives in several."""
        n = 9000
        a_keys = [i % 700 for i in range(n)]
        b_keys = [(i * 7) % 900 for i in range(n // 2)]
        db = _database(a_keys, b_keys)
        a, b = db.table("A"), db.table("B")
        build = lambda: HashJoin(  # noqa: E731
            SeqScan(a, "a", db.stats, ["ID", "X"]), SeqScan(b, "b", db.stats, ["ID", "Y"]), [1], [1]
        )
        reference = _run(build, row_mode, LOOP)
        assert len(reference[0]) > n
        assert _run(build, columnar_mode, KERNEL) == reference
        assert _run(build, columnar_mode, LOOP) == reference


# ----------------------------------------------------------------------
# NULL never joins — whichever join the optimizer picks
# ----------------------------------------------------------------------
class TestNullNeverJoins:
    A_ROWS = [(1, 10), (2, None), (3, 30), (4, None)]
    B_ROWS = [(1, 10), (2, None), (3, None), (4, 30), (5, 30)]
    EXPECTED = [(1, 1), (3, 4), (3, 5)]

    @pytest.fixture()
    def db(self):
        db = Database("nulls")
        for name, column_name, rows in (("A", "X", self.A_ROWS), ("B", "Y", self.B_ROWS)):
            table = db.create_table(
                TableSchema(
                    name,
                    [Column("ID", DataType.INT, True), Column(column_name, DataType.INT)],
                    primary_key="ID",
                )
            )
            for row in rows:
                table.insert(row)
        # Enough unmatched inner rows that probing B.Y's index beats
        # scanning B for a hash build.
        for i in range(500):
            db.table("B").insert((100 + i, 1000 + i))
        db.table("B").create_hash_index("hx_b_y", ["Y"])
        return db

    def _methods(self, db):
        a, b = db.table("A"), db.table("B")
        scan_a = lambda: SeqScan(a, "a", db.stats)  # noqa: E731
        scan_b = lambda: SeqScan(b, "b", db.stats)  # noqa: E731
        return {
            "index-nested-loops": lambda: IndexNestedLoopJoin(
                scan_a(), b, "b", b.hash_index_on(["Y"]), [1]
            ),
            "hash": lambda: HashJoin(scan_a(), scan_b(), [1], [1]),
            "sort-merge": lambda: SortMergeJoin(scan_a(), scan_b(), [1], [1]),
            "nested-loops": lambda: NestedLoopJoin(
                scan_a(), scan_b(), Comparison("=", ColumnRef("a", "x"), ColumnRef("b", "y"))
            ),
        }

    @pytest.mark.parametrize("mode", [row_mode, columnar_mode])
    @pytest.mark.parametrize("threshold", [KERNEL, LOOP])
    def test_every_join_method_agrees(self, db, mode, threshold):
        for name, build in self._methods(db).items():
            with mode(), probe_threshold(threshold):
                rows = build().run()
            assert sorted((r[0], r[2]) for r in rows) == self.EXPECTED, name

    @pytest.mark.parametrize("mode", [row_mode, columnar_mode])
    def test_the_statement(self, db, mode):
        """The issue's statement: with a hash index on ``B.Y`` the
        optimizer takes index nested-loops, which used to pair the NULL
        rows — ``(2, 2), (2, 3), (4, 2), (4, 3)``."""
        engine = Engine(db)
        sql = "SELECT A.ID, B.ID FROM A, B WHERE A.X = B.Y"
        assert "IndexNestedLoopJoin" in engine.explain(sql)
        with mode():
            assert sorted(engine.execute(sql).rows) == self.EXPECTED

    @pytest.mark.parametrize("mode", [row_mode, columnar_mode])
    def test_constant_null_probe_finds_nothing(self, db, mode):
        engine = Engine(db)
        with mode():
            assert engine.execute("SELECT B.ID FROM B WHERE B.Y = NULL").rows == []

    def test_composite_keys_with_a_null_part(self, db):
        b = db.table("B")
        composite = b.create_hash_index("hx_b_id_y", ["ID", "Y"])
        layout = RowLayout([("o", "id"), ("o", "y")])
        outer_rows = [(2, None), (4, 30), (3, None)]
        for mode in (row_mode, columnar_mode):
            with mode():
                rows = IndexNestedLoopJoin(
                    RowsSource(list(outer_rows), layout, db.stats), b, "b", composite, [0, 1]
                ).run()
            assert rows == [(4, 30, 4, 30)]
