"""The keep-flag memo (``repro.relational.keepmemo``): one conjunct's
WHERE outcome over every row of one table version, read by the
columnar ``Filter`` over a base-table ``SeqScan`` and by the topology
methods' ``Endpoints``.

* staleness — an insert, a table dropped and created again under the
  same name, and a rebuild over a fresh database each get flags of
  their own table version, never an older entry;
* NULLs — a conjunct that is unknown on a row does not keep it, and
  the AND of the conjuncts' flags is the WHERE outcome of their AND;
* what is held — a primary-key equality leaves no entry, values are
  read-only and the memo is bounded;
* the row engine never reads the memo.

The differential sweeps (``test_columnar_equivalence.py``) run every
generated statement from a cold and then a warm memo; CI runs this file
with numpy, under ``REPRO_NO_NUMPY=1`` and under
``REPRO_EXECUTION_MODE=row``.
"""

from __future__ import annotations

import contextlib
import weakref

import pytest

from repro.cache import MISSING
from repro.core import AttributeConstraint, KeywordConstraint, NoConstraint, TopologyQuery
from repro.core.methods.pruned import Endpoints
from repro.persist import load_system
from repro.relational import Column, Database, DataType, Engine, TableSchema
from repro.relational.column import to_pylist
from repro.relational.database import KEEP_MEMO_SIZE
from repro.relational.expressions import (
    And,
    Arith,
    ColumnRef,
    Comparison,
    Contains,
    Literal,
)
from repro.relational.keepmemo import conjunct_key, memo_flags
from repro.relational.operators import Filter, SeqScan, table_batch, table_layout
from repro.relational.runtime import columnar_mode, execution_mode, row_mode
from repro.relational.table import Table

SCHEMA = TableSchema(
    "Item",
    [
        Column("ID", DataType.INT, True),
        Column("DESC", DataType.TEXT, False),
        Column("TYPE", DataType.TEXT, False),
    ],
    primary_key="ID",
)

ROWS = [
    (1, "Kinase enzyme", "mRNA"),
    (2, "binding protein", "EST"),
    (3, None, "mRNA"),
    (4, "an ENZYME", None),
    (5, "enzyme inhibitor", "mRNA"),
]

SQL = "SELECT i.ID FROM Item i WHERE CONTAINS(i.DESC, 'enzyme') AND i.TYPE = 'mRNA'"


def _database(rows=ROWS):
    db = Database("memo")
    db.create_table(SCHEMA).bulk_load(rows)
    return db


def _ids(engine, sql=SQL):
    with columnar_mode():
        return sorted(row[0] for row in engine.execute(sql).rows)


def _expected(rows):
    """The statement's answer, computed here."""
    return sorted(
        r[0] for r in rows if r[1] is not None and "enzyme" in r[1].lower() and r[2] == "mRNA"
    )


def _entries(table):
    """How many of the statement's two conjuncts have an entry current
    for ``table``'s version."""
    conjuncts = (
        Contains(ColumnRef("i", "desc"), Literal("enzyme")),
        Comparison("=", ColumnRef("i", "type"), Literal("mRNA")),
    )
    keys = [(weakref.ref(table), conjunct_key(c, table)) for c in conjuncts]
    memo, version = table.keep_memo, table.data_version
    return sum(memo.get(key, MISSING, version) is not MISSING for key in keys)


# ----------------------------------------------------------------------
# Staleness
# ----------------------------------------------------------------------
def test_an_insert_retires_the_flags_of_the_older_version():
    db = _database()
    engine = Engine(db)
    assert _ids(engine) == _expected(ROWS) == [1, 5]
    table = db.table("Item")
    assert _entries(table) == 2
    table.insert((6, "Enzyme", "mRNA"))
    assert _entries(table) == 0
    assert _ids(engine) == _expected(ROWS + [(6, "Enzyme", "mRNA")]) == [1, 5, 6]
    assert _entries(table) == 2


def test_a_table_created_again_under_its_name_starts_cold():
    """Same name, same row count, so the same ``data_version``: only the
    table's identity tells the two versions apart."""
    db = _database()
    engine = Engine(db)
    assert _ids(engine) == [1, 5]
    version = db.table("Item").data_version
    db.drop_table("Item")
    swapped = [(i, t, d) for i, d, t in ROWS]  # DESC and TYPE swapped
    swapped[1] = (2, "mRNA", "enzymes")
    db.create_table(SCHEMA).bulk_load(swapped)
    assert db.table("Item").data_version == version
    assert _ids(engine) == _expected(swapped) == []
    sql = "SELECT i.ID FROM Item i WHERE CONTAINS(i.TYPE, 'enzyme') AND i.DESC = 'mRNA'"
    assert _ids(engine, sql) == [1, 2, 5]


def test_a_rebuild_over_a_fresh_database_starts_cold(tiny_system, tmp_path):
    """A rebuild runs on a clone of the base relations: new tables, so
    its first selection misses, and it answers alike.  After a snapshot
    restore the clone's tables even carry the old ``data_version``."""
    path = tmp_path / "restored.topo"
    tiny_system.save(path)
    restored = load_system(path)
    query = TopologyQuery(
        "Protein", "DNA", KeywordConstraint("DESC", "kinase"), NoConstraint()
    )
    expected = to_pylist(Endpoints(restored, query).ids(0))
    successor, _ = restored.rebuilt()
    old, new = (s.database.table("Protein") for s in (restored, successor))
    assert new is not old and new.data_version == old.data_version
    assert new.keep_memo is not old.keep_memo and len(new.keep_memo) == 0
    assert to_pylist(Endpoints(successor, query).ids(0)) == expected
    assert new.keep_memo.stats().misses == 1
    for method in ("full-top", "fast-top"):
        assert successor.search(query, method).tids == restored.search(query, method).tids


# ----------------------------------------------------------------------
# NULLs and conjunctions
# ----------------------------------------------------------------------
def test_unknown_is_not_kept_and_the_and_of_flags_is_the_where_outcome():
    table = _database().table("Item")
    contains = Contains(ColumnRef("i", "desc"), Literal("enzyme"))
    mrna = Comparison("=", ColumnRef("i", "type"), Literal("mRNA"))
    keyed = [(c, conjunct_key(c, table)) for c in (contains, mrna)]
    assert list(memo_flags(table, "i", keyed[:1])) == [True, False, False, True, True]
    assert list(memo_flags(table, "i", keyed[1:])) == [True, False, True, False, True]
    where = And([contains, mrna]).bind_batch(table_layout(table, "i"))
    outcome = where(table_batch(table))
    assert outcome.pylist()[2:4] == [None, None]  # unknown on rows 3 and 4
    assert list(memo_flags(table, "i", keyed)) == list(outcome.as_keep())
    # A table outside a catalog has no memo: the same flags, evaluated.
    loose = Table(SCHEMA)
    loose.bulk_load(ROWS)
    assert loose.keep_memo is None
    assert list(memo_flags(loose, "i", keyed)) == list(outcome.as_keep())


# ----------------------------------------------------------------------
# What the memo holds
# ----------------------------------------------------------------------
def test_a_primary_key_equality_leaves_no_entry(tiny_system):
    db = _database()
    table = db.table("Item")
    equalities = (
        Comparison("=", ColumnRef("i", "id"), Literal(3)),
        Comparison("=", Literal(4), ColumnRef("i", "id")),
    )
    for conjunct in equalities:
        with columnar_mode():
            rows = Filter(SeqScan(table, "i", db.stats), conjunct).run()
        assert len(rows) == 1 and len(db.keep_memo) == 0
    for conjunct in equalities + (
        Comparison("=", Arith("+", ColumnRef("i", "id"), Literal(1)), Literal(3)),
        Comparison("=", Literal(1), Literal(1)),
    ):
        assert conjunct_key(conjunct, table) is None, conjunct
    assert conjunct_key(Comparison("<", ColumnRef("i", "id"), Literal(3)), table)
    point = TopologyQuery(
        "Protein", "DNA", AttributeConstraint("ID", 7), AttributeConstraint("ID", 8)
    )
    memo = tiny_system.database.keep_memo
    before = memo.stats()
    Endpoints(tiny_system, point).ids(0)
    assert memo.stats() == before


def test_keys_drop_the_alias_and_keep_literal_types():
    table = _database().table("Item")

    def key(alias, value):
        return conjunct_key(Comparison("<", ColumnRef(alias, "id"), Literal(value)), table)

    assert key("q1", 3) == key("x", 3)
    assert len({key("q", 1), key("q", True), key("q", 1.0)}) == 3
    assert key("q", 0.0) != key("q", -0.0)


def test_flags_are_read_only():
    table = _database().table("Item")
    conjunct = Contains(ColumnRef("i", "desc"), Literal("enzyme"))
    flags = memo_flags(table, "i", [(conjunct, conjunct_key(conjunct, table))])
    with pytest.raises((ValueError, TypeError)):
        flags[0] = False


def test_keep_memo_is_bounded(tiny_system):
    """Endpoints read their selections from the memo, one entry per
    distinct keyword, and the memo holds at most its capacity."""
    memo = tiny_system.database.keep_memo
    before = memo.stats()
    assert before.capacity == KEEP_MEMO_SIZE
    for n in range(KEEP_MEMO_SIZE + 10):
        query = TopologyQuery(
            "Protein", "DNA", KeywordConstraint("DESC", f"absent{n}"), NoConstraint()
        )
        assert len(Endpoints(tiny_system, query).ids(0)) == 0
    after = memo.stats()
    assert after.size == KEEP_MEMO_SIZE
    assert after.misses - before.misses == KEEP_MEMO_SIZE + 10


# ----------------------------------------------------------------------
# The row engine bypasses the memo
# ----------------------------------------------------------------------
def _memo_requests(mode_context, db):
    before = db.keep_memo.stats().requests
    with mode_context():
        rows = Engine(db).execute(SQL).rows
    assert sorted(r[0] for r in rows) == [1, 5]
    return db.keep_memo.stats().requests - before


def test_the_row_engine_never_reads_the_memo():
    db = _database()
    assert _memo_requests(row_mode, db) == 0
    assert _memo_requests(columnar_mode, db) == 2


def test_the_default_mode_reads_the_memo_only_when_columnar():
    """Under ``REPRO_EXECUTION_MODE=row`` the default mode is the row
    engine, and nothing it runs touches the memo."""
    requests = _memo_requests(contextlib.nullcontext, _database())
    assert (requests == 0) == (execution_mode() == "row")
