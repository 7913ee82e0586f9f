"""Set-at-a-time early termination: the pruned-check walk and the
batch IDGJ probe against their tuple-at-a-time references.

* soundness — whenever the walk's reduction says "no witness", SQL5
  returns zero rows (never the converse claim);
* exactness — the walk answers exactly what SQL5 would, from int
  arrays and from Python sets, including the three ways a check the
  reduction lets through can still fail; the batch probe, walking the
  system's TopInfo group-order array, returns the row stack's tids and
  scores *and* charges its work counters; the array follows TopInfo's
  versions and gives the planner the store's score order;
* a pruned check executes no SQL statement at all;
* the merge of a best-first stream with the pruned checks: Fast-Top-k
  and both Fast-Top-k-ET flavors make the same checks, and the ET
  drivers read their stream one answer ahead;
* the selection cache of check outcomes and chain reach kept across
  queries, and the endpoint selections read from the keep-flag memo,
  change no answer and no ``work`` counter, never serve an entry across a data change or
  a rebuild, and hand out read-only values (the memo's own bound and
  staleness pins are in ``tests/relational/test_keep_memo.py``).

The numpy-free leg runs this same file under ``REPRO_NO_NUMPY=1`` (CI's
``numpy: none`` matrix leg); the set fallback of the walk is also
driven directly here, whichever leg runs.
"""

from __future__ import annotations

import dataclasses

import pytest

from difftest.gen import gen_topology_queries, make_rng
from repro.biozon import BiozonConfig, generate
from repro.cache import MISSING
from repro.core import (
    AttributeConstraint,
    KeywordConstraint,
    NoConstraint,
    TopologyQuery,
    TopologySearchSystem,
)
from repro.core.methods.et import FastTopKEtMethod, FullTopKEtMethod
from repro.core.methods.fast_top import FastTopMethod
from repro.biozon.schema import build_empty_database
from repro.core.methods.pruned import WITNESS, Endpoints, PrunedChecks, pruned_topologies
from repro.core.pathsql import (
    chain_reach,
    chains_reach,
    chains_witness,
    multi_chain_fragments,
    orient_signature,
)
from repro.core.ranking import score_column
from repro.relational.column import HAVE_NUMPY, to_pylist
from repro.relational.sql import Engine
from repro.relational.operators import FirstPerGroup, dgj
from repro.relational.runtime import columnar_mode, row_mode

PAIRS = (("Protein", "DNA"), ("Protein", "Interaction"))


def _chains_reach(database, signatures, end1_type, end2_type, end1_ids, end2_ids):
    """:func:`chains_reach` with every chain walked from ``end1_ids``."""
    return chains_reach(
        signatures, end1_type, end2_type, end2_ids,
        lambda oriented: chain_reach(database, oriented, end1_ids),
    )


# On the tiny store the one pruned (Protein, DNA) topology walks
# DNA-encodes-Protein-...: no EST sequence encodes a protein, so its
# check under TYPE = 'EST' is provably empty.
EMPTY_CHECK = TopologyQuery(
    "Protein", "DNA",
    KeywordConstraint("DESC", "human"),
    AttributeConstraint("TYPE", "EST"),
    k=5, ranking="freq",
)


def _queries(seeds, count=12):
    for seed in seeds:
        for query in gen_topology_queries(make_rng(seed), PAIRS, count=count):
            yield query
            # The reversed orientation of the same query.
            yield TopologyQuery(
                query.entity2, query.entity1, query.constraint2, query.constraint1,
                max_length=query.max_length, k=query.k, ranking=query.ranking,
            )


# ----------------------------------------------------------------------
# (a) The walk: its reduction is sound, its answer is SQL5's
# ----------------------------------------------------------------------
def _as_sets(*id_sets):
    return [set(to_pylist(ids)) for ids in id_sets]


def _check_inputs(system, query, topology):
    """(database, signatures, es1, es2, end1 ids, end2 ids, exception
    columns) of one pruned check, as PrunedChecks hands them over."""
    endpoints = Endpoints(system, query)
    first = 0 if system.orientation(query) else 1
    checks = PrunedChecks(system, query, endpoints)
    es1, es2 = system.store_entity_pair(query)
    return (
        system.database, topology.class_signatures, es1, es2,
        endpoints.ids(first), endpoints.ids(1 - first), checks._exceptions(topology),
    )


def test_reducer_never_denies_a_witness(tiny_system, difftest_seeds):
    fast_top = FastTopMethod(tiny_system)
    proved_empty = let_through = 0
    for query in _queries(difftest_seeds):
        for topology in pruned_topologies(tiny_system, query):
            rows = tiny_system.engine.execute(
                fast_top.pruned_check_sql(query, topology)
            ).rows
            database, signatures, es1, es2, end1_ids, end2_ids, _ = _check_inputs(
                tiny_system, query, topology
            )
            ends = _chains_reach(database, signatures, es1, es2, end1_ids, end2_ids)
            # The set fallback gives the numpy path's answer.
            assert set(to_pylist(ends)) == _chains_reach(
                database, signatures, es1, es2, *_as_sets(end1_ids, end2_ids)
            )
            if len(ends):
                let_through += 1
            else:
                proved_empty += 1
                assert rows == [], f"reducer denied a witness: {query!r} tid={topology.tid}"
    assert proved_empty and let_through  # the sweep saw both outcomes


def _tiny_data():
    data = generate(BiozonConfig.tiny(seed=3))
    return data.database, data.graph()


def _pruned_build(pairs=PAIRS):
    system = TopologySearchSystem(*_tiny_data())
    system.build(list(pairs), max_length=3, prune_threshold=5)
    return system


@pytest.fixture(scope="module")
def pruned_system():
    """The tiny dataset with a low pruning threshold: 18 pruned
    topologies, 9 of them of two or three classes, 238 ExcpTops rows."""
    return _pruned_build()


def _walk_matches_sql5(system, fast_top, query, topology):
    """Assert the walk answers SQL5, from the arrays PrunedChecks hands
    it and from Python sets of the same ids; return the answer and
    whether the reduction let the check through."""
    rows = system.engine.execute(fast_top.pruned_check_sql(query, topology)).rows
    context = f"{query!r} tid={topology.tid}"
    database, signatures, es1, es2, end1_ids, end2_ids, excluded = _check_inputs(
        system, query, topology
    )
    ends = _chains_reach(database, signatures, es1, es2, end1_ids, end2_ids)
    checks = PrunedChecks(system, query, Endpoints(system, query))
    assert checks.has_witness(topology) == bool(rows), context
    if len(ends):
        sets = chains_witness(
            database, signatures, es1, es2, *_as_sets(end1_ids, ends),
            tuple(to_pylist(column) for column in excluded),
        )
        assert sets == bool(rows), context
    return bool(rows), bool(len(ends))


def test_walk_answers_what_sql5_returns(pruned_system, difftest_seeds):
    """Every pruned topology, both orientations: the walk's answer is
    ``bool(rows of SQL5)``."""
    fast_top = FastTopMethod(pruned_system)
    outcomes = set()
    for query in _queries(difftest_seeds, count=4):
        for topology in pruned_topologies(pruned_system, query):
            outcomes.add(_walk_matches_sql5(pruned_system, fast_top, query, topology))
    assert (True, True) in outcomes and (False, False) in outcomes


def test_fast_methods_answer_the_full_methods(pruned_system, difftest_seeds, monkeypatch):
    """Every Fast method on the heavily pruned store, whose answers lean
    on the walk, against its Full counterpart.  Fast-Top-k's SQL4 rows
    and both Fast-Top-k-ET streams feed one merge, so the three check
    the same pruned topologies, in the same order, with the same
    outcomes."""
    log = []
    has_witness = PrunedChecks.has_witness

    def logged(checks, topology):
        found = has_witness(checks, topology)
        log.append((topology.tid, found))
        return found

    monkeypatch.setattr(PrunedChecks, "has_witness", logged)
    et_drivers = [FastTopKEtMethod(pruned_system, flavor=f) for f in ("idgj", "hdgj")]
    checked = 0
    outcomes = set()
    for query in _queries(difftest_seeds, count=6):
        if query.k is None:
            pairs = {"fast-top": "full-top"}
        else:
            pairs = {m: "full-top-k" for m in ("fast-top-k", "fast-top-k-et", "fast-top-k-opt")}
        for fast, full in pairs.items():
            result = pruned_system.search(query, fast)
            assert result.tids == pruned_system.search(query, full).tids, (fast, query)
            checked += result.work["pruned_checks"]
        if query.k is None:
            continue
        del log[:]
        pruned_system.search(query, "fast-top-k")
        staged = list(log)
        outcomes.update(found for _, found in staged)
        for driver in et_drivers:
            del log[:]
            driver.run(query)
            assert log == staged, (driver.flavor, query)
    assert checked and outcomes == {True, False}


def test_exception_pair_as_point_endpoints_has_no_witness(pruned_system):
    """(a) An ExcpTops pair satisfies its topology's path condition, so
    the reduction lets the point check through; the pair is the only
    one, and it is an exception."""
    fast_top = FastTopMethod(pruned_system)
    store = pruned_system.require_store()
    seen = 0
    for e1, e2, tid in pruned_system.database.table("ExcpTops").rows[::7]:
        topology = store.topology(tid)
        es1, es2 = topology.entity_pair
        query = TopologyQuery(
            es1, es2, AttributeConstraint("ID", e1), AttributeConstraint("ID", e2)
        )
        assert _walk_matches_sql5(pruned_system, fast_top, query, topology) == (False, True)
        seen += 1
    assert seen >= 10


def _explicit_database(proteins, dnas, interactions=(), encodes=(), interacts=()):
    """A Biozon database over explicit rows; ``interacts`` are
    (protein, interaction, dna) triangles."""
    db = build_empty_database("explicit")
    db.table("Protein").bulk_load([(p, f"protein {p}") for p in proteins])
    db.table("DNA").bulk_load([(d, "mRNA", f"dna {d}") for d in dnas])
    db.table("Interaction").bulk_load([(i, "binds", f"interaction {i}") for i in interactions])
    db.table("Encodes").bulk_load([(n, p, d) for n, (p, d) in enumerate(encodes)])
    db.table("InteractsProtein").bulk_load(
        [(n, p, i) for n, (p, i, _) in enumerate(interacts)]
    )
    db.table("InteractsDNA").bulk_load([(n, d, i) for n, (_, i, d) in enumerate(interacts)])
    return db


def _ids(values):
    """An int64 array where numpy is present — the form PrunedChecks
    hands the walk, so the reduction probes the CSR view — a set
    otherwise."""
    if HAVE_NUMPY:
        import numpy as np

        return np.array(values, dtype="int64")
    return set(values)


def _explicit_checks(db, signatures):
    """Per (protein, dna) point pair: assert the walk answers what the
    path condition's SQL does, from arrays and from sets; return that answer and
    whether the reduction let the pair through."""
    engine = Engine(db)
    chain = multi_chain_fragments(signatures, "Protein", "DNA", "A", "B")
    no_pairs = (_ids([]), _ids([]))
    answers = {}
    for (p, _) in db.table("Protein").rows:
        for (d, _, _) in db.table("DNA").rows:
            rows = engine.execute(
                f"SELECT 1 FROM Protein A, DNA B, {chain.from_sql()} "
                f"WHERE A.ID = {p} AND B.ID = {d} AND {chain.where_sql()} "
                f"FETCH FIRST 1 ROWS ONLY"
            ).rows
            end1_ids = _ids([p])
            ends = _chains_reach(db, signatures, "Protein", "DNA", end1_ids, _ids([d]))
            if len(ends):
                assert chains_witness(
                    db, signatures, "Protein", "DNA", end1_ids, ends, no_pairs
                ) == bool(rows), (p, d)
                assert chains_witness(
                    db, signatures, "Protein", "DNA", {p}, set(to_pylist(ends)), ([], [])
                ) == bool(rows), (p, d)
            else:
                assert not rows, (p, d)
            answers[p, d] = (bool(rows), bool(len(ends)))
    return answers


def test_revisiting_chain_instance_has_no_witness():
    """(b) p1's only P-D-P-D instance to d1 walks back through p1 and
    d1, so ``<>`` rules it out; p2 reaches d3 through a distinct p3."""
    db = _explicit_database(
        proteins=[1, 2, 3], dnas=[11, 12, 13],
        encodes=[(1, 11), (2, 12), (3, 12), (3, 13)],
    )
    signature = ("Protein", "encodes", "DNA", "encodes", "Protein", "encodes", "DNA")
    answers = _explicit_checks(db, [signature])
    assert answers[1, 11] == (False, True)  # reduced through, no simple path
    assert answers[2, 13] == (True, True)


def test_classes_connecting_different_pairs_have_no_witness():
    """(c) A two-class topology: encodes connects (1, 11) and (2, 12),
    the interaction chain (1, 12) and (2, 11); each class reaches both
    ends, but no pair has both.  Protein 3 and DNA 13 do."""
    db = _explicit_database(
        proteins=[1, 2, 3], dnas=[11, 12, 13], interactions=[21, 22, 23],
        encodes=[(1, 11), (2, 12), (3, 13)],
        interacts=[(1, 21, 12), (2, 22, 11), (3, 23, 13)],
    )
    signatures = [
        ("Protein", "encodes", "DNA"),
        ("Protein", "interacts_protein", "Interaction", "interacts_dna", "DNA"),
    ]
    ends = _chains_reach(db, signatures, "Protein", "DNA", {1, 2}, {11, 12})
    assert ends == {11, 12}
    assert not chains_witness(db, signatures, "Protein", "DNA", {1, 2}, ends, ([], []))
    answers = _explicit_checks(db, signatures)
    assert answers[1, 11] == (False, False)
    assert answers[3, 13] == (True, True)


# ----------------------------------------------------------------------
# (b) Row stack vs batch probe: same answers, same charged work
# ----------------------------------------------------------------------
def _drain(stream, score_column, limit):
    """(tid, score) of up to ``limit`` groups, plus the work charged."""
    stats = stream.stats
    before = stats.snapshot()
    tid_at = stream.layout.position("t", "tid")
    score_at = stream.layout.position("t", score_column)
    out = []
    stream.open()
    try:
        while len(out) < limit:
            row = stream.next()
            if row is None:
                break
            out.append((row[tid_at], row[score_at]))
    finally:
        stream.close()
    after = stats.snapshot()
    return out, {name: after[name] - before[name] for name in after}


@pytest.mark.parametrize("chunk", [1, 3, dgj.PROBE_CHUNK])
@pytest.mark.parametrize("method_class", [FullTopKEtMethod, FastTopKEtMethod])
def test_batch_probe_matches_row_stack(
    tiny_system, difftest_seeds, monkeypatch, method_class, chunk
):
    """k = 1, a middle k and k beyond the number of groups (which drains
    groups without a witness to the end); ``chunk`` 1 and 3 make every
    group of more than that many pairs a multi-chunk group."""
    monkeypatch.setattr(dgj, "PROBE_CHUNK", chunk)
    method = method_class(tiny_system, flavor="idgj")
    groups = len(tiny_system.require_store().topologies)
    compared = witnessless = 0
    for query in _queries(difftest_seeds, count=6):
        if query.k is None:
            continue
        score_column = method._score_col(query).lower()
        for limit in (1, 4, groups + 1):
            rows, row_work = _drain(
                FirstPerGroup(method.build_stack(query), None), score_column, limit
            )
            probe = method.build_probe(query, Endpoints(tiny_system, query))
            batch, batch_work = _drain(probe, score_column, limit)
            context = f"{query!r} limit={limit}"
            assert batch == rows, context
            assert batch_work == row_work, context
            compared += 1
            witnessless += batch_work["groups_probed"] > len(batch)
    assert compared and witnessless  # some groups had no witness


@pytest.mark.parametrize("k", [1, 4, 60])
def test_full_top_k_et_work_is_mode_independent(tiny_system, k):
    """The whole method, not just its stream: Full-Top-k-ET issues no
    SQL, so every ``work`` counter must agree between the row stack and
    the batch probe — what the cost calibrator is fed does not move."""
    for second in (NoConstraint(), AttributeConstraint("TYPE", "EST")):
        query = TopologyQuery(
            "Protein", "DNA", KeywordConstraint("DESC", "kinase"), second,
            k=k, ranking="rare",
        )
        with row_mode():
            expected = tiny_system.search(query, "full-top-k-et")
        with columnar_mode():
            actual = tiny_system.search(query, "full-top-k-et")
        assert actual.tids == expected.tids
        assert actual.scores == expected.scores
        assert actual.work == expected.work


def test_join_index_follows_table_versions():
    """The per-group position arrays belong to one version of the pairs
    and entity tables: a new entity row is seen by the next query.  The
    system holds them, so the ET methods share one copy."""
    data = generate(BiozonConfig.tiny(seed=3))
    system = TopologySearchSystem(data.database, data.graph())
    system.build([("Protein", "DNA")], max_length=3)
    method = FullTopKEtMethod(system, flavor="idgj")
    query = TopologyQuery(
        "Protein", "DNA", KeywordConstraint("DESC", "zzzfresh"), NoConstraint(), k=3
    )

    def held():
        return system.et_indexes.join_index("AllTops", (("e1", "Protein"), ("e2", "DNA")))

    with columnar_mode():
        assert method.run(query).tids == []
        index = held()
        assert FullTopKEtMethod(system, flavor="idgj").run(query).tids == []
        assert held() is index  # reused, by another method instance too
        protein = system.database.table("Protein")
        alltops = system.database.table("AllTops")
        new_id = max(protein.store.column_values(0)) + 1
        protein.insert((new_id, "zzzfresh protein"))
        e1, e2, tid = alltops.rows[0]
        alltops.insert((new_id, e2, tid))
        assert method.run(query).tids == [tid]
        assert held() is not index
    with row_mode():
        assert method.run(query).tids == [tid]


def _group_order(system, query, method_class):
    return system.et_indexes.group_order(
        system.store_entity_pair(query),
        score_column(query.ranking),
        method_class.use_pruned_store,
    )


def _probe_matches_stack_at_every_limit(system, method_class, query):
    """Rows and work of the batch probe against the row stack, for every
    number of groups the consumer can ask for."""
    method = method_class(system, flavor="idgj")
    score_at = method._score_col(query).lower()
    for limit in range(1, len(_group_order(system, query, method_class)) + 2):
        rows = _drain(FirstPerGroup(method.build_stack(query), None), score_at, limit)
        probe = method.build_probe(query, Endpoints(system, query))
        assert _drain(probe, score_at, limit) == rows, f"{query!r} limit={limit}"


def test_batch_probe_ends_on_the_scans_last_row(tiny_system):
    """The last kept group is TopInfo's last row in score order: its
    witness leaves no next row for the scan to buffer."""
    query = TopologyQuery("Protein", "DNA", NoConstraint(), NoConstraint(), k=3)
    order = _group_order(tiny_system, query, FullTopKEtMethod)
    assert order.steps[-1] == order.scanned - 1
    _probe_matches_stack_at_every_limit(tiny_system, FullTopKEtMethod, query)


@pytest.mark.parametrize("method_class", [FullTopKEtMethod, FastTopKEtMethod])
@pytest.mark.parametrize("ranking", ["freq", "rare", "domain"])
def test_batch_probe_skips_rows_of_the_other_pair(tiny_system, method_class, ranking):
    """Kept groups separated by TopInfo rows of the other entity pair:
    the scan reads (and charges) those rows, and reads the one after a
    witness twice."""
    for query in (
        TopologyQuery("Protein", "Interaction", NoConstraint(), NoConstraint(), k=3, ranking=ranking),
        TopologyQuery("DNA", "Protein", NoConstraint(), NoConstraint(), k=3, ranking=ranking),
    ):
        steps = _group_order(tiny_system, query, method_class).steps
        assert any(later - earlier > 1 for earlier, later in zip(steps, steps[1:]))
        _probe_matches_stack_at_every_limit(tiny_system, method_class, query)


def test_group_order_follows_topinfo_writes_and_rebuilds():
    """A TopInfo row written after a query, and a rebuild in place that
    drops and recreates TopInfo, are seen by the next query, by both
    execution modes and by the planner's group cardinalities."""
    system = _pruned_build()
    query = TopologyQuery("Protein", "DNA", NoConstraint(), NoConstraint(), k=1)
    with columnar_mode():
        top = system.search(query, "full-top-k-et").tids
    order = _group_order(system, query, FullTopKEtMethod)
    topinfo = system.database.table("TopInfo")
    tid_at = topinfo.schema.column_position("TID")
    score_at = topinfo.schema.column_position(score_column(query.ranking))
    freq_at = topinfo.schema.column_position("FREQ")
    template = next(r for r in topinfo.rows if r[tid_at] == top[0])
    tid = max(row[tid_at] for row in topinfo.rows) + 1
    row = list(template)
    row[tid_at], row[score_at], row[freq_at] = tid, template[score_at] + 1.0, 1
    topinfo.insert(tuple(row))
    e1, e2, _ = system.database.table("AllTops").rows[0]
    system.database.table("AllTops").insert((e1, e2, tid))
    for mode in (columnar_mode, row_mode):
        with mode():
            assert system.search(query, "full-top-k-et").tids == [tid]
    assert _group_order(system, query, FullTopKEtMethod) is not order
    _, cards = system.planner.stack_parameters(query, False)
    assert cards[0] == 1.0 and len(cards) == len(order) + 1

    pairs = (("DNA", "Interaction"),) + PAIRS
    system.build(list(pairs), max_length=3)
    rebuilt = TopologySearchSystem(*_tiny_data())
    rebuilt.build(list(pairs), max_length=3)
    for method in ("full-top-k-et", "fast-top-k-et"):
        for ranking in ("freq", "rare", "domain"):
            variant = dataclasses.replace(query, k=40, ranking=ranking)
            with columnar_mode():
                expected = _outcome(rebuilt, variant, method)
                assert _outcome(system, variant, method) == expected, (method, ranking)


def test_group_order_follows_topinfo_created_again_under_its_name():
    """Same name, same row count, so the same ``data_version``: only the
    table's identity tells the two versions of TopInfo apart."""
    system = TopologySearchSystem(*_tiny_data())
    system.build(list(PAIRS), max_length=3)
    query = TopologyQuery("Protein", "DNA", NoConstraint(), NoConstraint(), k=3)
    with columnar_mode():
        before = system.search(query, "full-top-k-et").tids
    database = system.database
    old = database.table("TopInfo")
    score_at = old.schema.column_position(score_column(query.ranking))
    rows = [r[:score_at] + (-r[score_at],) + r[score_at + 1 :] for r in old.rows]
    database.drop_table("TopInfo")
    topinfo = database.create_table(old.schema)
    topinfo.bulk_load(rows)
    for scheme in ("freq", "rare", "domain"):
        topinfo.create_sorted_index(f"by_{scheme}", score_column(scheme))
    assert topinfo.data_version == old.data_version
    with row_mode():
        expected = system.search(query, "full-top-k-et").tids
    with columnar_mode():
        assert system.search(query, "full-top-k-et").tids == expected != before


@pytest.mark.parametrize("system_name", ["tiny_system", "pruned_system"])
def test_stack_parameters_keep_the_score_order_of_the_store(request, system_name):
    """The planner's group cardinalities, read from the group order, are
    the store's topologies of the pair sorted by (-score, -tid), for
    every (pair, ranking, pruned) key and both orientations."""
    system = request.getfixturevalue(system_name)
    store = system.require_store()
    for es1, es2 in system.built_pairs:
        for ranking in ("freq", "rare", "domain"):
            for use_pruned_store in (False, True):
                expected = sorted(
                    (
                        t
                        for t in store.topologies.values()
                        if t.entity_pair == (es1, es2)
                        and not (use_pruned_store and t.tid in store.pruned_tids)
                    ),
                    key=lambda t: (-t.scores[ranking], -t.tid),
                )
                for first, second in ((es1, es2), (es2, es1)):
                    query = TopologyQuery(
                        first, second, NoConstraint(), NoConstraint(), k=3, ranking=ranking
                    )
                    _, cards = system.planner.stack_parameters(query, use_pruned_store)
                    assert cards == [float(t.frequency) for t in expected]
                    order = system.et_indexes.group_order(
                        (es1, es2), score_column(ranking), use_pruned_store
                    )
                    assert order.keys == [t.tid for t in expected]


# ----------------------------------------------------------------------
# (c) A pruned check executes no statement
# ----------------------------------------------------------------------
# The one pruned (Protein, DNA) topology of the tiny store has a witness
# among the human proteins.
WITNESSED = TopologyQuery(
    "Protein", "DNA", KeywordConstraint("DESC", "human"), NoConstraint(),
    k=5, ranking="freq",
)


def _statements(monkeypatch, engine):
    """The statements ``engine`` executes from now on, as a growing
    list.  Costed planning also looks statements up in the statement
    cache, so lookups are not executions."""
    executed = []
    execute = engine.execute

    def counting(sql, params=None):
        executed.append(sql)
        return execute(sql, params)

    monkeypatch.setattr(engine, "execute", counting)
    return executed


def test_proved_empty_check_runs_no_sql(tiny_system, monkeypatch):
    executed = _statements(monkeypatch, tiny_system.engine)
    with columnar_mode():
        reference = tiny_system.search(EMPTY_CHECK, "full-top-k")
        statements = len(executed)
        result = tiny_system.search(EMPTY_CHECK, "fast-top-k-et")
        assert len(executed) == statements
    assert result.tids == reference.tids
    assert result.scores == reference.scores
    assert result.work["pruned_checks"] == 1
    assert result.work["pruned_checks_proved_empty"] == 1
    assert result.work["subqueries_run"] == 0


def test_witnessed_check_runs_no_sql(tiny_system, monkeypatch):
    """The witness search answers a check the reduction lets through:
    Fast-Top-k-ET still issues no statement."""
    executed = _statements(monkeypatch, tiny_system.engine)
    with columnar_mode():
        reference = tiny_system.search(WITNESSED, "full-top-k")
        statements = len(executed)
        result = tiny_system.search(WITNESSED, "fast-top-k-et")
        assert len(executed) == statements
    assert result.tids == reference.tids
    assert result.work["pruned_checks"] == 1
    assert result.work["pruned_checks_proved_empty"] == 0
    assert result.work["subqueries_run"] == 0


def test_fast_top_issues_one_statement(pruned_system, difftest_seeds, monkeypatch):
    """Fast-Top executes SQL1's LeftTops branch and nothing else, whatever
    its pruned checks answer."""
    executed = _statements(monkeypatch, pruned_system.engine)
    answers = set()
    with columnar_mode():
        for query in _queries(difftest_seeds[:2], count=6):
            exhaustive = TopologyQuery(
                query.entity1, query.entity2, query.constraint1, query.constraint2,
                max_length=query.max_length,
            )
            statements = len(executed)
            result = pruned_system.search(exhaustive, "fast-top")
            assert len(executed) == statements + 1, exhaustive
            assert result.work["subqueries_run"] == 0
            checks = result.work["pruned_checks"]
            answers.add((checks > result.work["pruned_checks_proved_empty"], checks > 0))
    assert answers >= {(True, True), (False, True)}


def test_regular_methods_skip_the_proved_empty_check(tiny_system, monkeypatch):
    """Fast-Top-k issues SQL4 only; Fast-Top its LeftTops branch only
    (while ``sql_for`` still renders the paper's full SQL1)."""
    executed = _statements(monkeypatch, tiny_system.engine)
    fast_top = tiny_system.method("fast-top")
    with columnar_mode():
        reference = tiny_system.search(EMPTY_CHECK, "full-top-k")
        statements = len(executed)
        staged = tiny_system.search(EMPTY_CHECK, "fast-top-k")
        assert len(executed) == statements + 1
        union = tiny_system.search(EMPTY_CHECK, "fast-top")
    assert staged.tids == reference.tids
    assert staged.work["pruned_checks_proved_empty"] == 1
    assert union.tids == reference.tids
    assert union.work["pruned_checks_proved_empty"] == 1
    assert union.work["subqueries_run"] == 0  # no NOT EXISTS branch was planned
    assert fast_top.sql_for(EMPTY_CHECK).count("UNION") == 1


def test_et_drivers_read_one_answer_ahead(tiny_system):
    """The merge reads the DGJ stream one answer past the last one it
    takes: Full-Top-k-ET probes k + 1 groups of a stream that holds more
    than k answers, and Fast-Top-k-ET, whose one pruned topology takes a
    place of the top k, probes k."""
    assert len(tiny_system.search(dataclasses.replace(WITNESSED, k=50), "full-top-k-et").tids) > 5
    assert tiny_system.search(WITNESSED, "full-top-k-et").work["groups_probed"] == 6
    fast = tiny_system.search(WITNESSED, "fast-top-k-et")
    assert fast.work["pruned_checks"] == 1
    assert fast.work["groups_probed"] == 5


def test_engine_execute_span_and_counter_report_the_checks(tiny_system):
    from repro.obs import registry, tracer

    def outcomes():
        for name, _, _, samples in registry().gather():
            if name == "repro.engine.pruned_checks":
                return {labels.get("outcome"): value for _, labels, value in samples}
        return {}

    before = outcomes()
    was_enabled = tracer().enabled
    tracer().enabled = True
    try:
        with tracer().span("test.ingress", ingress=True) as root:
            tiny_system.search(EMPTY_CHECK, "fast-top-k-et")
            tiny_system.search(WITNESSED, "fast-top-k-et")
        spans = [
            s for s in tracer().trace_spans(root.trace_id) if s.name == "engine.execute"
        ]
    finally:
        tracer().enabled = was_enabled
    assert [s.tags["pruned_checks"] for s in spans] == [1, 1]
    assert [s.tags["pruned_checks_proved_empty"] for s in spans] == [1, 0]
    assert all(s.tags["groups_probed"] > 0 for s in spans)
    after = outcomes()
    assert after.get("proved_empty", 0) - before.get("proved_empty", 0) == 1
    assert after.get("executed", 0) - before.get("executed", 0) == 1


# ----------------------------------------------------------------------
# (d) Selections and cached check outcomes across queries
# ----------------------------------------------------------------------
FAST_METHODS = ("fast-top", "fast-top-k", "fast-top-k-et", "fast-top-k-opt")


def _uncalibrated(system):
    """No plan moves with execution feedback, so two runs of one query
    differ only by what the selection cache holds."""
    system.calibration_enabled = False
    return system


def _fresh_copy(system):
    """A system over a copy of ``system``'s current base rows with the
    same store adopted: the same data, nothing cached."""
    fresh = system.clone_base()
    fresh.adopt_store(system.require_store(), system.max_length, system.built_pairs)
    return _uncalibrated(fresh)


def _outcome(system, query, method):
    result = system.search(query, method)
    return result.tids, result.scores, result.work


def _variant(query):
    """The same constraints with another ``k`` and ranking."""
    rankings = ("freq", "rare", "domain")
    ranking = rankings[(rankings.index(query.ranking) + 1) % len(rankings)]
    return dataclasses.replace(query, k=(query.k or 2) + 2, ranking=ranking)


def _cached_outcomes(system, query):
    """(topology, cached outcome) of the query's pruned checks held in
    the selection cache now."""
    endpoints = Endpoints(system, query)
    checks = PrunedChecks(system, query, endpoints)
    for topology in checks.topologies:
        outcome = system.selection_cache.get(
            checks.outcome_key(topology), MISSING, endpoints.stamp
        )
        if outcome is not MISSING:
            yield topology, outcome


def _cached_reach(system, query):
    """(key, ids) of the query's chain reach entries the selection cache
    serves now, each checked against a fresh walk; also whether the
    first endpoint set is the query's side 0."""
    endpoints = Endpoints(system, query)
    checks = PrunedChecks(system, query, endpoints)
    first = 0 if system.orientation(query) else 1
    es1, es2 = system.store_entity_pair(query)
    found = {}
    for topology in checks.topologies:
        for signature in topology.class_signatures:
            oriented = orient_signature(signature, es1, es2)
            key = checks.reach_key(oriented)
            ids = system.selection_cache.get(key, MISSING, endpoints.stamp)
            if ids is not MISSING:
                fresh = chain_reach(system.database, oriented, endpoints.ids(first))
                assert set(to_pylist(ids)) == set(to_pylist(fresh)), key
                found[key] = ids
    return found


def test_cached_selections_and_outcomes_change_nothing(difftest_seeds):
    """Every Fast method: answers and the full ``work`` dict are the same
    from a fresh system, a cold cache, a warm one repeating the query and
    a warm one asked another ``k`` and ranking; each cached outcome is
    SQL5's answer."""
    warm = _uncalibrated(_pruned_build())
    fast_top = warm.method("fast-top")
    from_cache = compared = 0
    for query in _queries(difftest_seeds, count=2):
        fresh = _uncalibrated(_pruned_build())
        methods = FAST_METHODS if query.k is not None else FAST_METHODS[:1]
        for method in methods:
            context = f"{method} {query!r}"
            # A cached topology plan or SQL plan may have been made for
            # another query of its class: both systems start without any.
            for system in (fresh, warm):
                system.invalidate_plans()
                system.engine.clear_plan_cache()
                system.selection_cache.clear()
            expected = _outcome(fresh, query, method)
            assert _outcome(warm, query, method) == expected, context
            before = warm.selection_cache_stats()
            assert _outcome(warm, query, method) == expected, context
            after = warm.selection_cache_stats()
            assert after.misses == before.misses, context
            assert after.hits - before.hits >= expected[2]["pruned_checks"], context
            from_cache += expected[2]["pruned_checks"]
            variant = _variant(query)
            fresh.selection_cache.clear()
            expected = _outcome(fresh, variant, method)
            assert _outcome(warm, variant, method) == expected, f"{method} {variant!r}"
        for topology, outcome in _cached_outcomes(warm, query):
            rows = warm.engine.execute(fast_top.pruned_check_sql(query, topology)).rows
            assert (outcome == WITNESS) == bool(rows), f"{query!r} tid={topology.tid}"
            compared += 1
    assert from_cache and compared


def _zzz_query():
    return TopologyQuery(
        "Protein", "DNA", KeywordConstraint("DESC", "zzzfresh"), NoConstraint(),
        k=5, ranking="freq",
    )


def test_selection_follows_an_entity_row_insert():
    """(a) A new protein matching a cached keyword, encoding a DNA: the
    next query sees it in its selection, and the one-class ``encodes``
    topology, whose check was proved empty, now has a witness."""
    system = _uncalibrated(_pruned_build())
    query = _zzz_query()
    for method in FAST_METHODS:
        system.search(query, method)
    assert len(Endpoints(system, query).ids(0)) == 0
    before = _cached_reach(system, query)
    assert before and not any(len(ids) for ids in before.values())
    protein = system.database.table("Protein")
    encodes = system.database.table("Encodes")
    new_id = 999_999  # ids are unique across entity tables
    protein.insert((new_id, "zzzfresh protein"))
    dna_id = system.database.table("DNA").rows[0][0]
    encodes.insert((max(encodes.store.column_values(0)) + 1, new_id, dna_id))
    # Plan both systems under post-insert statistics; neither call
    # touches the selection cache this test is about.
    system.stats.refresh()
    system.invalidate_plans()
    fresh = _fresh_copy(system)
    assert set(to_pylist(Endpoints(system, query).ids(0))) == {new_id}
    assert _cached_reach(system, query) == {}  # every reach entry retired
    for method in FAST_METHODS:
        result = system.search(query, method)
        assert result.tids, method  # the encodes topology's check holds now
        assert _outcome(system, query, method) == _outcome(fresh, query, method), method
    after = _cached_reach(system, query)
    assert any(len(after.get(key, ())) for key in before)  # empty before


def test_witness_outcome_follows_an_exception_pair_insert():
    """(b) A point query on one pair of a pruned topology has a witness;
    once that pair is an ExcpTops pair of the topology, it has none."""
    system = _uncalibrated(_pruned_build())
    store = system.require_store()
    fast_top = system.method("fast-top")
    e1, e2, tid = next(row for row in store.alltops_rows if row[2] in store.pruned_tids)
    topology = store.topology(tid)
    es1, es2 = topology.entity_pair
    query = TopologyQuery(
        es1, es2, AttributeConstraint("ID", e1), AttributeConstraint("ID", e2)
    )

    def answer():
        checks = PrunedChecks(system, query, Endpoints(system, query))
        rows = system.engine.execute(fast_top.pruned_check_sql(query, topology)).rows
        found = checks.has_witness(topology)
        assert found == bool(rows)
        assert (tid in system.search(query, "fast-top").tids) == found
        return found

    assert answer() and answer()  # the second from the cache
    assert _cached_reach(system, query)
    system.database.table("ExcpTops").insert((e1, e2, tid))
    assert _cached_reach(system, query) == {}  # retired by the write
    assert not answer()
    assert _cached_reach(system, query)  # walked again, equal to a fresh walk


def test_rebuild_in_place_serves_no_outcome_of_the_old_generation():
    """(c) A rebuild that also covers (DNA, Interaction) reassigns the
    tids, and three pruned tids of the old store name another pruned
    topology of the same entity pair in the new one: the queries answer
    what a system built that way answers."""
    system = _uncalibrated(_pruned_build())
    queries = [q for q in _queries([0, 1], count=6) if q.k is not None]
    for query in queries:
        for method in FAST_METHODS:
            system.search(query, method)
    filled = system.selection_cache_stats().size
    reached = sum(len(_cached_reach(system, query)) for query in queries)
    pairs = (("DNA", "Interaction"),) + PAIRS
    system.build(list(pairs), max_length=3, prune_threshold=5)
    assert not any(_cached_reach(system, query) for query in queries)
    rebuilt = _uncalibrated(_pruned_build(pairs))
    checks = 0
    for query in queries:
        for method in FAST_METHODS:
            expected = _outcome(rebuilt, query, method)
            assert _outcome(system, query, method) == expected, f"{method} {query!r}"
            checks += expected[2]["pruned_checks"]
    assert filled and reached and checks
    assert any(_cached_reach(system, query) for query in queries)


def test_cached_selections_are_read_only(tiny_system):
    endpoints = Endpoints(tiny_system, WITNESSED)
    for values in (endpoints.keep(0), endpoints.ids(0), endpoints.ids(1)):
        assert len(values)
        with pytest.raises((ValueError, TypeError, AttributeError)):
            if isinstance(values, frozenset):
                values.add(0)
            else:
                values[0] = values[0]


def _encodes_topology(system):
    """The pruned (Protein, DNA) topology of the one class
    Protein-encodes-DNA."""
    store = system.require_store()
    return next(
        store.topology(tid)
        for tid in sorted(store.pruned_tids)
        if store.topology(tid).entity_pair == ("Protein", "DNA")
        and [len(s) for s in store.topology(tid).class_signatures] == [3]
        and "encodes" in store.topology(tid).class_signatures[0]
    )


def test_reach_follows_a_relationship_insert_on_the_chain():
    """A new Encodes row from a protein of the first endpoint set to a
    DNA its chain did not reach: a check with another second endpoint
    reads the same reach entry, and must see the row."""
    system = _uncalibrated(_pruned_build())
    topology = _encodes_topology(system)
    oriented = orient_signature(topology.class_signatures[0], "Protein", "DNA")
    protein = system.database.table("Protein").rows[0]
    first_side = KeywordConstraint("DESC", protein[1].split()[0])
    broad = TopologyQuery("Protein", "DNA", first_side, NoConstraint())
    assert PrunedChecks(system, broad, Endpoints(system, broad)).has_witness(topology)
    reached = chain_reach(system.database, oriented, Endpoints(system, broad).ids(0))
    unreached = next(
        row[0]
        for row in system.database.table("DNA").rows
        if row[0] not in set(to_pylist(reached))
    )
    encodes = system.database.table("Encodes")
    encodes.insert((max(encodes.store.column_values(0)) + 1, protein[0], unreached))
    point = TopologyQuery("Protein", "DNA", first_side, AttributeConstraint("ID", unreached))
    checks = PrunedChecks(system, point, Endpoints(system, point))
    assert checks.reach_key(oriented) in system.selection_cache  # made before the insert
    assert checks.has_witness(topology)
    rows = system.engine.execute(
        system.method("fast-top").pruned_check_sql(point, topology)
    ).rows
    assert rows
    fresh = _fresh_copy(system)
    ranked = dataclasses.replace(point, k=5)
    for method in FAST_METHODS:
        asked = point if method == "fast-top" else ranked
        assert topology.tid in system.search(asked, method).tids, method
        assert _outcome(system, asked, method) == _outcome(fresh, asked, method), method
    assert _cached_reach(system, point)


def test_cached_reach_is_read_only(pruned_system):
    query = dataclasses.replace(WITNESSED, k=None)
    pruned_system.search(query, "fast-top")
    entries = _cached_reach(pruned_system, query)
    assert entries
    for ids in entries.values():
        assert isinstance(ids, frozenset) or not ids.flags.writeable
        with pytest.raises((ValueError, TypeError, AttributeError)):
            if isinstance(ids, frozenset):
                ids.add(0)
            else:
                ids[:1] = 0
