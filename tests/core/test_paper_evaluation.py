"""The paper's evaluation (Section 6: Tables 2-3, Figures 11-17), pinned.

Each test is one shape claim of the paper — who wins, what a
distribution or a plan looks like — asserted on the session fixtures
(``tiny_dataset`` / ``tiny_system``, seed 3).  Where the paper compares
running times the pin compares the executor's deterministic work
counters (``rows_scanned + index_probes``), which are the same in
columnar, row and no-numpy runs, so nothing here can flake.  Claims
other tests already carry are not repeated: Figure 8's counts
(``tests/graph/test_schema_enum.py``, ``tests/biozon/test_biozon.py``),
the nine methods' agreement (``test_methods_equivalence.py``), Table 1
(``test_store_pruning.py::TestPruning::test_space_ratio``).
"""

from __future__ import annotations

import pytest

from repro.analysis import fit_zipf, frequency_table, head_mass
from repro.biozon import INTERACTION_KEYWORDS, PROTEIN_KEYWORDS
from repro.core import (
    InstanceRetriever,
    KeywordConstraint,
    NoConstraint,
    TopologyQuery,
    WeakPathRules,
)
from repro.core.methods.et import FastTopKEtMethod
from repro.core.methods.topk import FastTopKMethod
from repro.core.plan import STRATEGY_ET_HDGJ
from repro.core.topologies import (
    path_equivalence_classes,
    topologies_for_pair,
    topologies_from_classes,
)
from repro.relational.sql.parser import parse

from tests.conftest import build_graph

PAIRS = [("Protein", "DNA"), ("Protein", "Interaction")]
SELECTIVE, MEDIUM, UNSELECTIVE = 0, 1, 2  # index into the *_KEYWORDS tables


def pi_query(protein: int, interaction: int, **kwargs) -> TopologyQuery:
    """One Table-2 cell: Protein x Interaction under two keyword
    predicates of the given selectivities."""
    return TopologyQuery(
        "Protein",
        "Interaction",
        KeywordConstraint("DESC", PROTEIN_KEYWORDS[protein][0]),
        KeywordConstraint("DESC", INTERACTION_KEYWORDS[interaction][0]),
        **kwargs,
    )


def work(result) -> int:
    return result.work["rows_scanned"] + result.work["index_probes"]


def rebuilt(system, pairs, **build):
    """A private system over a *copy* of the fixture's base tables: a
    second system over the shared ``Database`` would re-materialise the
    derived tables under the session fixture, and the fixture's
    calibrator has seen other tests' traffic."""
    fresh = system.clone_base()
    fresh.build(pairs, **build)
    return fresh


def by_frequency(store, es1, es2):
    return sorted(store.topologies_for_entity_pair(es1, es2), key=lambda t: -t.frequency)


# Figures 11-12: what the offline phase finds
def test_fig11_frequencies_are_head_heavy_and_zipf_like(tiny_system):
    """All four of the figure's curves; the fixture itself builds two."""
    curves = PAIRS + [("DNA", "Unigene"), ("Protein", "Unigene")]
    store = rebuilt(tiny_system, curves, max_length=3).require_store()
    series = frequency_table(store, curves)
    assert set(series) == {"PD", "PI", "DU", "PU"}
    for label, freqs in series.items():
        assert freqs == sorted(freqs, reverse=True), label
        assert head_mass(freqs, 5) > 0.35, label  # 0.72 (PU) ... 0.88 (PI)
        assert fit_zipf(freqs).exponent > 0.5, label  # 1.23 (PU) ... 1.79 (PI)


def test_fig12_most_frequent_topologies_are_structurally_simple(tiny_system):
    top = by_frequency(tiny_system.require_store(), "Protein", "DNA")[:10]
    assert top[0].is_single_path
    assert sum(t.num_classes <= 2 for t in top[:5]) >= 3  # 5 of 5


# Figures 14-15, Table 2, Section 6.2.4: regular plans vs early termination
def test_fig14_15_regular_and_dgj_plan_shapes(tiny_system):
    query = pi_query(MEDIUM, MEDIUM, k=10, ranking="freq")
    sql4 = FastTopKMethod(tiny_system).pairs_sql(query)
    regular = tiny_system.engine.planner.plan(parse(sql4))[0].explain()
    # Figure 14: joins under one final top-k sort, every topology touched.
    assert "Join" in regular
    assert "TopN" in regular or "Sort" in regular
    assert "DGJ" not in regular
    # Figure 15: both stacks pull groups off the score-ordered TopInfo
    # scan; (a) is IDGJ all the way (LeftTops + the two entity levels),
    # (b) swaps the entity levels for HDGJ.
    idgj = FastTopKEtMethod(tiny_system, flavor="idgj").build_stack(query).explain()
    hdgj = FastTopKEtMethod(tiny_system, flavor="hdgj").build_stack(query).explain()
    assert "OrderedIndexScan(TopInfo" in idgj and "OrderedIndexScan(TopInfo" in hdgj
    assert idgj.count("IDGJ") == 3 and "HDGJ" not in idgj
    assert hdgj.count("HDGJ(") == 2 and hdgj.count("IDGJ") == 1
    # EXPLAIN prints these trees, not a drawing of them: the query's
    # predicates are the entity levels' residuals, and the scan's key is
    # the ranking's score column.
    explained = tiny_system.explain(query, "fast-top-k").operators
    assert "Join" in explained and "DGJ" not in explained
    assert "TopN" in explained or "Sort" in explained
    explained_idgj = tiny_system.explain(query, "fast-top-k-et").operators
    explained_hdgj = tiny_system.method("fast-top-k-opt").operator_tree(
        STRATEGY_ET_HDGJ, query
    )
    for tree in (explained_idgj, explained_hdgj):
        assert "OrderedIndexScan(TopInfo AS t, SCORE_FREQ desc)" in tree
    assert explained_idgj.count("IDGJ(") == 3 and "HDGJ" not in explained_idgj
    assert explained_hdgj.count("HDGJ(") == 2 and explained_hdgj.count("IDGJ(") == 1
    assert "IDGJ(Protein AS q1, residual Contains(ColumnRef(q1.desc)" in explained_idgj
    assert "IDGJ(Interaction AS q2, residual Contains(" in explained_idgj


def test_table2_regular_wins_selective_et_wins_unselective_sql_loses(tiny_system):
    """Section 6.2.2, both directions of the crossover: selective
    predicates leave the regular plan little to join (work 72 vs ET's
    220); unselective ones let ET stop after a few groups (74 vs 122).
    The optimizer lands on the winner's side in both cells, and the SQL
    method, with no precomputation to lean on, does the most work."""
    fresh = rebuilt(tiny_system, PAIRS, max_length=3)
    opt = fresh.method("fast-top-k-opt")
    for cell, et_wins in ((SELECTIVE, False), (UNSELECTIVE, True)):
        query = pi_query(cell, cell, k=10, ranking="freq")
        regular = work(tiny_system.search(query, "fast-top-k"))
        et = work(tiny_system.search(query, "fast-top-k-et"))
        assert (et < regular) is et_wins, (cell, regular, et)
        # Asked of the planner, not the plan cache: both keywords fall
        # in one decade selectivity bucket, i.e. one cached plan class.
        chosen = fresh.planner.plan_for(opt, query).strategy
        assert chosen.startswith("et-") is et_wins, (cell, chosen)
    query = pi_query(SELECTIVE, SELECTIVE)
    sql, full = (tiny_system.search(query, m) for m in ("sql", "full-top"))
    assert sql.tids == full.tids
    assert work(sql) > work(full)  # 468 vs 59


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 5: both Table-2 keywords fall in one decade "
    "selectivity bucket, so the plan cache serves whichever plan it "
    "cached first to both cells",
)
@pytest.mark.parametrize(
    "order", [(SELECTIVE, UNSELECTIVE), (UNSELECTIVE, SELECTIVE)],
    ids=["selective-first", "unselective-first"],
)
def test_table2_cached_plans_follow_the_planner_in_either_order(tiny_system, order):
    """The plan ``fast-top-k-opt`` serves through the plan cache is the
    one the planner picks for the query, whichever cell arrives first.
    Today the cache serves ``regular`` to both cells when the selective
    one comes first and ``et-idgj`` to both otherwise, while the planner
    picks ``regular`` and ``et-idgj`` respectively."""
    fresh = rebuilt(tiny_system, PAIRS, max_length=3)
    fresh.calibration_enabled = False
    opt = fresh.method("fast-top-k-opt")
    for cell in order:
        query = pi_query(cell, cell, k=10, ranking="freq")
        served = fresh.search(query, "fast-top-k-opt").plan.strategy
        assert served == fresh.planner.plan_for(opt, query).strategy, cell


def test_vary_k_probes_grow_with_k_and_instances_with_frequency(tiny_system):
    """Section 6.2.4: ET stays exact for every k and its probes grow
    with k (6, 9, 18, 33, 63); a frequent topology retrieves at least
    as many instances as a rare one (200, the limit, then 3, then 1)."""
    probes = []
    for k in (1, 2, 5, 10, 20):
        query = TopologyQuery(
            "Protein", "DNA", KeywordConstraint("DESC", "human"), NoConstraint(),
            k=k, ranking="rare",
        )
        et = tiny_system.search(query, "fast-top-k-et")
        assert et.tids == tiny_system.search(query, "fast-top-k").tids
        assert len(et.tids) == k
        probes.append(et.work["index_probes"])
    assert probes == sorted(probes) and probes[0] < probes[-1]
    tops = by_frequency(tiny_system.require_store(), "Protein", "DNA")
    retriever = InstanceRetriever(tiny_system)
    found = [
        len(retriever.instances(t.tid, limit=200, per_pair_limit=4))
        for t in (tops[0], tops[len(tops) // 2], tops[-1])
    ]
    assert found[0] >= found[-1] and min(found) >= 1


# Figures 16-17 and Table 3: significance, weak paths, l = 4
def test_fig16_domain_ranking_surfaces_the_planted_operon_motif(
    tiny_dataset, tiny_system
):
    """Two proteins encoded by one DNA that also interact: frequency
    buries the motif (rank 20 of 31) and rarity does little better
    (12); the Domain scheme puts it first."""
    store = tiny_system.require_store()
    operon = tiny_dataset.truth.operons[0]
    keys = set()
    for protein in operon.interacting_pair:
        keys |= set(
            topologies_for_pair(tiny_system.graph, protein, operon.dna_id, 3).topology_keys
        )
    motif = {store.tid_of(key, ("Protein", "DNA")) for key in keys}
    assert motif and None not in motif
    everything = len(store.topologies_for_entity_pair("Protein", "DNA"))

    def best_rank(ranking: str) -> int:
        query = TopologyQuery(
            "Protein", "DNA", NoConstraint(), NoConstraint(), k=everything, ranking=ranking
        )
        tids = tiny_system.search(query, "full-top-k").tids
        return min(tids.index(tid) for tid in motif)

    assert best_rank("domain") == 0 < min(best_rank("freq"), best_rank("rare"))


def test_fig17_weak_path_dilutes_the_motif_and_pruning_restores_it():
    """The paper's scenario, built explicitly: p and d related by
    P-D-P-D, P-I-P-D and — through two unigenes — the weak P-D-P-U-D."""
    g = build_graph(
        [("p", "Protein"), ("d", "DNA"), ("p2", "Protein"), ("d2", "DNA"),
         ("i", "Interaction"), ("u1", "Unigene"), ("u2", "Unigene")],
        [("e1", "p", "d2", "encodes"), ("e2", "p2", "d2", "encodes"),
         ("e3", "p2", "d", "encodes"),
         ("e4", "p", "i", "interacts_protein"), ("e5", "p2", "i", "interacts_protein"),
         ("e6", "u1", "p2", "uni_encodes"), ("e7", "u1", "d", "uni_contains"),
         ("e8", "u2", "p2", "uni_encodes"), ("e9", "u2", "d", "uni_contains")],
    )
    classes = path_equivalence_classes(g, "p", "d", 4)
    weak = WeakPathRules().weak_classes(classes)
    assert weak  # P-D-P-U-D
    strong = {sig: paths for sig, paths in classes.items() if sig not in weak}
    diluted = topologies_for_pair(g, "p", "d", 4).topology_keys
    clean, _ = topologies_from_classes(strong, "p", "d")
    assert len(diluted) > len(clean) >= 1


def test_table3_l4_weak_classes_appear_and_opt_still_matches_full(tiny_system):
    l4 = rebuilt(
        tiny_system, [("Protein", "Interaction")],
        max_length=4, combination_cap=512, per_pair_path_limit=256,
    )
    store = l4.require_store()
    weak = WeakPathRules().weak_classes(
        sig for topology in store.topologies.values() for sig in topology.class_signatures
    )
    assert weak  # 5 distinct classes; none exist at l = 3
    space = store.space_report()
    assert space["AllTops"] >= space["LeftTops"]  # 397 vs 164
    for protein in (SELECTIVE, MEDIUM, UNSELECTIVE):
        query = pi_query(protein, MEDIUM, max_length=4, k=10, ranking="freq")
        assert l4.search(query, "fast-top-k-opt").tids == l4.search(query, "full-top-k").tids
