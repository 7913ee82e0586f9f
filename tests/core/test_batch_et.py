"""Set-at-a-time early termination: the pruned-check reducer and the
batch IDGJ probe against their tuple-at-a-time references.

* soundness — whenever the reducer says "no witness", SQL5 returns zero
  rows (never the converse claim);
* exactness — the batch probe returns the row stack's tids and scores
  *and* charges its work counters;
* a provably empty pruned check executes no SQL statement at all.

The numpy-free leg runs this same file under ``REPRO_NO_NUMPY=1`` (CI's
``numpy: none`` matrix leg); the set fallback of the reducer is also
driven directly here, whichever leg runs.
"""

from __future__ import annotations

import pytest

from difftest.gen import gen_topology_queries, make_rng
from repro.biozon import BiozonConfig, generate
from repro.core import (
    AttributeConstraint,
    KeywordConstraint,
    NoConstraint,
    TopologyQuery,
    TopologySearchSystem,
)
from repro.core.methods.et import FastTopKEtMethod, FullTopKEtMethod
from repro.core.methods.fast_top import FastTopMethod
from repro.core.methods.pruned import Endpoints, PrunedChecks
from repro.core.pathsql import chains_may_connect
from repro.relational.column import to_pylist
from repro.relational.operators import FirstPerGroup, dgj
from repro.relational.runtime import columnar_mode, row_mode

PAIRS = (("Protein", "DNA"), ("Protein", "Interaction"))

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
# (a) The reducer is sound
# ----------------------------------------------------------------------
def test_reducer_never_denies_a_witness(tiny_system, difftest_seeds):
    fast_top = FastTopMethod(tiny_system)
    proved_empty = let_through = 0
    for query in _queries(difftest_seeds):
        endpoints = Endpoints(tiny_system, query)
        checks = PrunedChecks(fast_top, query, endpoints)
        es1, es2 = tiny_system.store_entity_pair(query)
        first = 0 if tiny_system.orientation(query) else 1
        for topology in fast_top.pruned_topologies(query):
            rows = tiny_system.engine.execute(
                fast_top.pruned_check_sql(query, topology)
            ).rows
            may_match = checks.may_match(topology)
            # The set fallback gives the numpy path's answer.
            assert may_match == chains_may_connect(
                tiny_system.database, topology.class_signatures, es1, es2,
                set(to_pylist(endpoints.ids(first))),
                set(to_pylist(endpoints.ids(1 - first))),
            )
            if may_match:
                let_through += 1
            else:
                proved_empty += 1
                assert rows == [], f"reducer denied a witness: {query!r} tid={topology.tid}"
    assert proved_empty and let_through  # the sweep saw both outcomes


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
    and entity tables: a new entity row is seen by the next query."""
    data = generate(BiozonConfig.tiny(seed=3))
    system = TopologySearchSystem(data.database, data.graph())
    system.build([("Protein", "DNA")], max_length=3)
    method = FullTopKEtMethod(system, flavor="idgj")
    query = TopologyQuery(
        "Protein", "DNA", KeywordConstraint("DESC", "zzzfresh"), NoConstraint(), k=3
    )
    with columnar_mode():
        assert method.run(query).tids == []
        held = method._join_indexes[("Protein", "DNA")][1]
        assert method.run(query).tids == []
        assert method._join_indexes[("Protein", "DNA")][1] is held  # reused
        protein = system.database.table("Protein")
        alltops = system.database.table("AllTops")
        new_id = max(protein.store.column_values(0)) + 1
        protein.insert((new_id, "zzzfresh protein"))
        e1, e2, tid = alltops.rows[0]
        alltops.insert((new_id, e2, tid))
        assert method.run(query).tids == [tid]
        assert method._join_indexes[("Protein", "DNA")][1] is not held
    with row_mode():
        assert method.run(query).tids == [tid]


# ----------------------------------------------------------------------
# (c) A provably empty check executes no statement
# ----------------------------------------------------------------------
def test_proved_empty_check_runs_no_sql(tiny_system):
    engine = tiny_system.engine
    with columnar_mode():
        reference = tiny_system.search(EMPTY_CHECK, "full-top-k")
        statements = engine.plan_cache_hits + engine.plan_cache_misses
        result = tiny_system.search(EMPTY_CHECK, "fast-top-k-et")
        assert engine.plan_cache_hits + engine.plan_cache_misses == statements
    assert result.tids == reference.tids
    assert result.scores == reference.scores
    assert result.work["pruned_checks"] == 1
    assert result.work["pruned_checks_proved_empty"] == 1
    assert result.work["subqueries_run"] == 0


def test_regular_methods_skip_the_proved_empty_check(tiny_system):
    """Fast-Top-k issues SQL4 only; Fast-Top leaves the branch out of
    its UNION (while ``sql_for`` still renders the paper's full SQL1)."""
    engine = tiny_system.engine
    fast_top = tiny_system.method("fast-top")
    with columnar_mode():
        reference = tiny_system.search(EMPTY_CHECK, "full-top-k")
        statements = engine.plan_cache_hits + engine.plan_cache_misses
        staged = tiny_system.search(EMPTY_CHECK, "fast-top-k")
        assert engine.plan_cache_hits + engine.plan_cache_misses == statements + 1
        union = tiny_system.search(EMPTY_CHECK, "fast-top")
    assert staged.tids == reference.tids
    assert staged.work["pruned_checks_proved_empty"] == 1
    assert union.tids == reference.tids
    assert union.work["pruned_checks_proved_empty"] == 1
    assert union.work["subqueries_run"] == 0  # no NOT EXISTS branch was planned
    assert fast_top.sql_for(EMPTY_CHECK).count("UNION") == 1


def test_engine_execute_span_and_counter_report_the_checks(tiny_system):
    from repro.obs import registry, tracer

    def outcomes():
        for name, _, _, samples in registry().gather():
            if name == "repro.engine.pruned_checks":
                return {labels.get("outcome"): value for _, labels, value in samples}
        return {}

    before = outcomes()
    witnessed = TopologyQuery(
        "Protein", "DNA", KeywordConstraint("DESC", "human"), NoConstraint(),
        k=5, ranking="freq",
    )
    was_enabled = tracer().enabled
    tracer().enabled = True
    try:
        with tracer().span("test.ingress", ingress=True) as root:
            tiny_system.search(EMPTY_CHECK, "fast-top-k-et")
            tiny_system.search(witnessed, "fast-top-k-et")
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
