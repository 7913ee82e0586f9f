"""Tables, schemas, indexes: the storage layer."""

from __future__ import annotations

import pytest

from repro.errors import CatalogError, SchemaError
from repro.relational import Column, Database, Table, TableSchema
from repro.relational.types import DataType


def people_schema():
    return TableSchema(
        "People",
        [
            Column("ID", DataType.INT, True),
            Column("NAME", DataType.TEXT),
            Column("AGE", DataType.INT),
        ],
        primary_key="ID",
    )


@pytest.fixture
def people():
    t = Table(people_schema())
    t.bulk_load([(1, "ann", 30), (2, "bob", 25), (3, "cara", 30), (4, None, None)])
    return t


class TestSchema:
    def test_case_insensitive_lookup(self):
        s = people_schema()
        assert s.column_position("id") == 0
        assert s.column_position("Name") == 1

    def test_unknown_column(self):
        with pytest.raises(SchemaError):
            people_schema().column_position("nope")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("T", [Column("A", DataType.INT), Column("a", DataType.INT)])

    def test_bad_primary_key(self):
        with pytest.raises(SchemaError):
            TableSchema("T", [Column("A", DataType.INT)], primary_key="B")

    def test_validate_row_types(self):
        s = people_schema()
        with pytest.raises(SchemaError):
            s.validate_row(("x", "ann", 30))
        with pytest.raises(SchemaError):
            s.validate_row((1, "ann"))

    def test_not_null_enforced(self):
        s = people_schema()
        with pytest.raises(SchemaError):
            s.validate_row((None, "ann", 30))

    def test_row_from_mapping(self):
        s = people_schema()
        assert s.row_from_mapping({"id": 9, "name": "zed"}) == (9, "zed", None)
        with pytest.raises(SchemaError):
            s.row_from_mapping({"id": 9, "bogus": 1})

    def test_float_widens_int(self):
        s = TableSchema("T", [Column("X", DataType.FLOAT)])
        assert s.validate_row((3,)) == (3.0,)

    def test_bool_is_not_int(self):
        s = TableSchema("T", [Column("X", DataType.INT)])
        with pytest.raises(SchemaError):
            s.validate_row((True,))


class TestTable:
    def test_insert_and_scan(self, people):
        assert people.row_count == 4
        assert list(people.scan())[0] == (1, "ann", 30)

    def test_duplicate_pk_rejected(self, people):
        with pytest.raises(SchemaError):
            people.insert((1, "dup", 1))

    def test_get_by_key(self, people):
        assert people.get_by_key(2) == [(2, "bob", 25)]
        assert people.get_by_key(99) == []

    def test_hash_index_lookup(self, people):
        idx = people.create_hash_index("by_age", ["AGE"])
        rows = [people.row_at(p) for p in idx.lookup(30)]
        assert {r[1] for r in rows} == {"ann", "cara"}

    def test_hash_index_maintained_on_insert(self, people):
        idx = people.create_hash_index("by_age", ["AGE"])
        people.insert((5, "dia", 30))
        assert len(idx.lookup(30)) == 3

    def test_hash_index_on_lookup_by_columns(self, people):
        people.create_hash_index("by_age", ["AGE"])
        assert people.hash_index_on(["AGE"]) is not None
        assert people.hash_index_on(["NAME"]) is None

    def test_duplicate_index_name(self, people):
        people.create_hash_index("x", ["AGE"])
        with pytest.raises(CatalogError):
            people.create_hash_index("x", ["NAME"])
        with pytest.raises(CatalogError):
            people.create_sorted_index("x", "AGE")

    def test_sorted_index_scan(self, people):
        idx = people.create_sorted_index("age_sorted", "AGE")
        ages = [people.row_at(p)[2] for p in idx.scan()]
        assert ages == [25, 30, 30]  # NULL excluded

    def test_sorted_index_descending(self, people):
        idx = people.create_sorted_index("age_sorted", "AGE")
        ages = [people.row_at(p)[2] for p in idx.scan(descending=True)]
        assert ages == [30, 30, 25]

    def test_sorted_index_range(self, people):
        idx = people.create_sorted_index("age_sorted", "AGE")
        rows = [people.row_at(p) for p in idx.range_scan(low=26)]
        assert {r[1] for r in rows} == {"ann", "cara"}
        rows = [people.row_at(p) for p in idx.range_scan(high=30, high_inclusive=False)]
        assert {r[1] for r in rows} == {"bob"}

    def test_sorted_index_lookup(self, people):
        idx = people.create_sorted_index("age_sorted", "AGE")
        assert len(idx.lookup(30)) == 2
        assert idx.min_key() == 25 and idx.max_key() == 30

    def test_sorted_index_maintained_on_insert(self, people):
        idx = people.create_sorted_index("age_sorted", "AGE")
        people.insert((5, "dia", 27))
        ages = [people.row_at(p)[2] for p in idx.scan()]
        assert ages == [25, 27, 30, 30]

    def test_estimated_bytes_positive(self, people):
        assert people.estimated_bytes() > 0


class TestDatabase:
    def test_catalog(self):
        db = Database("t")
        db.create_table(people_schema())
        assert db.has_table("people")
        assert db.table("PEOPLE").schema.name == "People"

    def test_duplicate_table(self):
        db = Database("t")
        db.create_table(people_schema())
        with pytest.raises(CatalogError):
            db.create_table(people_schema())

    def test_unknown_table(self):
        db = Database("t")
        with pytest.raises(CatalogError):
            db.table("nope")

    def test_drop_table(self):
        db = Database("t")
        db.create_table(people_schema())
        db.drop_table("people")
        assert not db.has_table("people")
        with pytest.raises(CatalogError):
            db.drop_table("people")

    def test_stats_counters(self):
        db = Database("t")
        db.stats.rows_scanned += 5
        db.stats.index_probes += 2
        assert db.stats.total_work() == 7
        db.stats.reset()
        assert db.stats.total_work() == 0


class TestColumnGathers:
    """``take_columns`` / ``ColumnStore`` gathers and
    slices: list or int-array indices, all columns or a subset — always
    plain Python values out of list columns."""

    def _store(self):
        from repro.relational.column import ColumnStore

        store = ColumnStore([DataType.INT, DataType.TEXT, DataType.INT])
        store.extend_rows([(i, f"r{i}", None if i == 2 else -i) for i in range(6)])
        return store

    def test_array_indices_over_list_columns(self):
        from repro.relational.column import HAVE_NUMPY, np, take_columns

        values = ["a", "b", "c", "d"]
        indices = np.array([3, 0, 3]) if HAVE_NUMPY else [3, 0, 3]
        assert take_columns([values], indices) == [["d", "a", "d"]]
        assert take_columns([values], [3, 0, 3]) == [["d", "a", "d"]]
        ints = np.array([10, 20, 30, 40]) if HAVE_NUMPY else [10, 20, 30, 40]
        text, numbers = take_columns([values, ints], indices)
        assert text == ["d", "a", "d"] and list(numbers) == [40, 10, 40]
        assert [list(c) for c in take_columns([values, ints], [])] == [[], []]

    def test_store_take_and_slice_subsets(self):
        from repro.relational.column import HAVE_NUMPY, np, to_pylist

        store = self._store()
        rows = np.array([4, 1]) if HAVE_NUMPY else [4, 1]
        everything = [to_pylist(c) for c in store.take_columns(rows)]
        assert everything == [[4, 1], ["r4", "r1"], [-4, -1]]
        assert type(everything[2][0]) is int  # NULL-bearing INT column: a list
        subset = [to_pylist(c) for c in store.take_columns(rows, (2, 0))]
        assert subset == [[-4, -1], [4, 1]]
        sliced = [to_pylist(c) for c in store.slice_columns(1, 3, (1,))]
        assert sliced == [["r1", "r2"]]
        assert store.row_at(2, (1, 2)) == ("r2", None)
        assert list(store.iter_rows((0,))) == [(i,) for i in range(6)]
        assert list(store.iter_rows(())) == [()] * 6
