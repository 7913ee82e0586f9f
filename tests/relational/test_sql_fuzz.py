"""The SQL front end under generated input.

* **Crash-freedom.**  On arbitrary text and on soups of SQL tokens,
  :func:`parse` and :func:`parse_prepared` return a :class:`Query` or
  raise an :class:`SqlError` subclass — never anything else.
* **Round-trip.**  A statement whose literals are ``:pN`` parameters
  (``tests/difftest/gen.py``) answers exactly like its literal twin, in
  the columnar and the row engine.  Then a second binding of the same
  selectivity class goes through the warm statement cache — served by
  the first binding's plan — and must still answer like its own twin.
* **Concurrency.**  Threads building one :class:`PreparedPlan` under
  different bindings each get their own answer.

``--hypothesis-profile ci`` (registered in ``tests/conftest.py``) runs
the same properties over many more examples.
"""

from __future__ import annotations

import random
import re
import sys
import threading
from typing import Dict, List

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from difftest.gen import WORDS, gen_database, gen_queries, make_rng
from repro.errors import SqlError
from repro.relational import Column, Database, DataType, Engine, TableSchema
from repro.relational.runtime import columnar_mode, row_mode
from repro.relational.sql import Query, parse, parse_prepared
from repro.relational.sql.tokens import KEYWORDS, SYMBOLS

# ----------------------------------------------------------------------
# Crash-freedom
# ----------------------------------------------------------------------
_TOKENS = st.one_of(
    st.sampled_from(sorted(KEYWORDS)).map(str.upper),
    st.sampled_from(SYMBOLS + ("!", ";", "'", ":", "--", "\n")),
    st.sampled_from(("t", "x", "a.b", "t0.c1", "desc", "_id", "p0")),
    st.sampled_from((":p0", ":k", ":missing", ": p")),
    st.integers(0, 10**20).map(str),
    st.sampled_from(("1.5", "2.", ".5", "0", "007")),
    st.text(max_size=6).map(lambda s: "'" + s.replace("'", "''") + "'"),
)
_SOUP = st.lists(_TOKENS, max_size=40).map(" ".join)
_PARAMS = st.dictionaries(
    st.sampled_from(("p0", "k")),
    st.one_of(st.none(), st.booleans(), st.integers(-5, 5), st.floats(allow_nan=False), st.text(max_size=4)),
)


def _parses_or_refuses(text: str, params) -> None:
    for parse_once in (lambda: parse(text, params), lambda: parse_prepared(text)):
        try:
            assert isinstance(parse_once(), Query)
        except SqlError:
            pass


@given(text=st.text(), params=_PARAMS)
def test_parse_never_crashes_on_arbitrary_text(text, params):
    _parses_or_refuses(text, params)


@given(text=_SOUP, params=_PARAMS)
def test_parse_never_crashes_on_token_soup(text, params):
    _parses_or_refuses(text, params)


@given(head=st.sampled_from(("SELECT 1 FROM t WHERE ", "SELECT ")), depth=st.integers(40, 400))
def test_deep_nesting_is_refused_not_a_stack_overflow(head, depth):
    for body in ("(" * depth + "1" + ")" * depth, "NOT " * depth + "x", "- " * depth + "1"):
        _parses_or_refuses(f"{head}{body} FROM t", {})


# ----------------------------------------------------------------------
# Round-trip: parameterised statement vs literal twin
# ----------------------------------------------------------------------
_PARAM_RE = re.compile(r":(p\d+)\b")
_FETCH_RE = re.compile(r"FETCH FIRST :(p\d+) ROWS ONLY")


def _literal_twin(sql: str, binding: Dict[str, object]) -> str:
    from difftest.gen import _sql_literal

    return _PARAM_RE.sub(lambda m: _sql_literal(binding[m.group(1)]), sql)


def _run(engine: Engine, sql: str, binding=None) -> List[tuple]:
    return engine.execute(sql, binding).rows


def _rebind(binding: Dict[str, object], sql: str, rng: random.Random) -> Dict[str, object]:
    """Another binding for ``sql``: each value redrawn, same type."""
    fetch = _FETCH_RE.search(sql)
    out: Dict[str, object] = {}
    for name, value in binding.items():
        if fetch is not None and name == fetch.group(1):
            out[name] = rng.randint(1, 25)
        elif isinstance(value, bool):
            out[name] = rng.random() < 0.5
        elif isinstance(value, int):
            out[name] = rng.randint(0, 100)
        elif isinstance(value, float):
            out[name] = round(rng.uniform(0.0, 1000.0), 3)
        else:
            out[name] = " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 2)))
    return out


def _same_answer(sql: str, binding, rows: List[tuple], engine: Engine) -> None:
    """``rows`` is what ``sql`` under ``binding`` may answer, whichever
    plan ran: the row engine's rows as a multiset — or, under ``FETCH
    FIRST``, as many rows as it fetches, all from the unfetched result."""
    with row_mode():
        expected = _run(engine, _literal_twin(sql, binding))
        fetch = _FETCH_RE.search(sql)
        if fetch is not None:
            everything = _run(engine, sql, {**binding, fetch.group(1): 10**9})
    if fetch is None:
        assert sorted(map(repr, rows)) == sorted(map(repr, expected)), sql
        return
    assert len(rows) == len(expected), sql
    pool = list(map(repr, everything))
    for row in map(repr, rows):
        assert row in pool, sql
        pool.remove(row)


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_parameterised_statements_answer_like_their_literal_twins(seed):
    db, tables = gen_database(make_rng(seed), n_tables=2)
    bindings: List[Dict[str, object]] = []
    statements = gen_queries(make_rng(seed + 1), tables, count=4, bindings=bindings)
    literals = gen_queries(make_rng(seed + 1), tables, count=4)
    rng = random.Random(seed)
    for sql, binding, literal in zip(statements, bindings, literals):
        assert _literal_twin(sql, binding) == literal
        try:
            with row_mode():
                expected = _run(Engine(db), literal)
        except SqlError:
            assume(False)  # the literal text does not parse back (e.g. 1e-05)
        # Cold: the parameterised statement is planned for its own
        # binding, so it runs its twin's plan — same rows, same order.
        with columnar_mode():
            assert _run(Engine(db), literal) == expected, literal
            engine = Engine(db)
            assert _run(engine, sql, binding) == expected, sql
        with row_mode():
            assert _run(Engine(db), sql, binding) == expected, sql

        # Warm: a second binding of the same class reuses the plan.
        statement = engine.planner.bind(parse_prepared(sql))
        klass = statement.selectivity_class(engine.stats, binding)
        for _ in range(20):
            other = _rebind(binding, sql, rng)
            if statement.selectivity_class(engine.stats, other) == klass:
                break
        else:
            continue
        with columnar_mode():
            hits = engine.statement_cache_stats().hits
            rows = _run(engine, sql, other)
            assert engine.statement_cache_stats().hits == hits + 1, sql
        _same_answer(sql, other, rows, engine)


# ----------------------------------------------------------------------
# Concurrency: one PreparedPlan, many bindings at once
# ----------------------------------------------------------------------
def _people() -> Engine:
    db = Database("bindings")
    people = db.create_table(
        TableSchema(
            "People",
            [
                Column("ID", DataType.INT, True),
                Column("TEAM", DataType.INT),
                Column("NOTE", DataType.TEXT),
            ],
            primary_key="ID",
        )
    )
    people.create_hash_index("by_team", ["TEAM"])
    people.bulk_load(
        [(i, i % 7, f"member {i} of {'kinase' if i % 3 else 'binding'}") for i in range(140)]
    )
    return Engine(db)


def test_concurrent_builds_of_one_plan_keep_their_own_bindings():
    engine = _people()
    sql = (
        "SELECT p.ID, :tag AS TAG FROM People p "
        "WHERE p.TEAM = :team AND CONTAINS(p.NOTE, :word) "
        "ORDER BY p.ID FETCH FIRST :k ROWS ONLY"
    )
    bindings = [
        {"tag": f"t{i}", "team": i % 7, "word": ("kinase", "binding")[i % 2], "k": 1 + i % 5}
        for i in range(8)
    ]
    with row_mode():
        expected = [_run(engine, sql, binding) for binding in bindings]
    assert all(expected) and len({repr(rows) for rows in expected}) == len(bindings)
    prepared = engine.planner.prepare(parse_prepared(sql), bindings[0])
    barrier = threading.Barrier(len(bindings), timeout=30)
    answers: Dict[int, List[List[tuple]]] = {}

    def worker(i: int) -> None:
        with columnar_mode():
            barrier.wait()
            answers[i] = [prepared.run(bindings[i]) for _ in range(30)]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(bindings))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads mid-build as often as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(answers) == list(range(len(bindings)))
    for i, runs in answers.items():
        assert runs == [expected[i]] * 30, bindings[i]
