"""Ablations of the design choices DESIGN.md calls out:

* canonical forms vs pairwise-isomorphism grouping for equivalence
  classes (identity must agree; canonical grouping scales better),
* staged top-k (SQL4 then SQL5 only when needed) vs always checking
  every pruned topology.
"""

from __future__ import annotations

from repro.analysis import render_table
from repro.biozon import PROTEIN_KEYWORDS
from repro.core import KeywordConstraint, NoConstraint, TopologyQuery
from repro.core.methods.topk import FastTopKMethod
from repro.graph import are_isomorphic, canonical_form

from benchmarks.common import built_system, emit


def _union_graphs(system, limit=60):
    store = system.require_store()
    graphs = []
    for t in list(store.topologies.values())[:limit]:
        graphs.append(t.graph())
    return graphs


def test_ablation_canonical_vs_pairwise(benchmark):
    """Group topology representative graphs by isomorphism: canonical
    keys (dict build) vs pairwise VF2-style comparisons."""
    system = built_system()
    graphs = _union_graphs(system)

    def canonical_grouping():
        groups = {}
        for g in graphs:
            groups.setdefault(canonical_form(g), []).append(g)
        return groups

    def pairwise_grouping():
        groups = []
        for g in graphs:
            for group in groups:
                if are_isomorphic(group[0], g):
                    group.append(g)
                    break
            else:
                groups.append([g])
        return groups

    canon = benchmark(canonical_grouping)
    pairwise = pairwise_grouping()
    assert len(canon) == len(pairwise)
    emit(
        "ablation_canonical",
        render_table(
            ["strategy", "groups", "comparisons"],
            [
                ["canonical keys", len(canon), len(graphs)],
                [
                    "pairwise isomorphism",
                    len(pairwise),
                    sum(range(len(pairwise))) * 2,
                ],
            ],
            title="Ablation: canonical forms vs pairwise isomorphism grouping",
        ),
    )


def test_ablation_staged_topk(benchmark):
    """Staged Fast-Top-k skips SQL5 checks that cannot reach the top k;
    the ablated variant checks every pruned topology."""
    system = built_system()
    store = system.require_store()
    method = FastTopKMethod(system)
    query = TopologyQuery(
        "Protein", "DNA",
        KeywordConstraint("DESC", PROTEIN_KEYWORDS[2][0]),
        NoConstraint(),
        k=5, ranking="rare",
    )

    def staged():
        return method.run(query)

    def unstaged():
        stats = system.database.stats
        before = stats.subqueries_run
        result = system.engine.execute(method.unpruned_sql(query))
        ranked = [(row[0], row[1]) for row in result.rows]
        checks = 0
        for topology in method._fast_top.pruned_topologies(query):
            checks += 1
            hit = system.engine.execute(
                method._fast_top.pruned_check_sql(query, topology)
            )
            if hit.rows:
                ranked.append((topology.tid, topology.scores[query.ranking]))
        ranked.sort(key=lambda ts: (-ts[1], -ts[0]))
        return [t for t, _ in ranked[: query.k]], checks

    staged_result = benchmark(staged)
    unstaged_tids, unstaged_checks = unstaged()
    assert staged_result.tids == unstaged_tids

    pruned_total = len(
        [
            t
            for t in store.pruned_tids
            if store.topology(t).entity_pair == ("Protein", "DNA")
        ]
    )
    emit(
        "ablation_staged_topk",
        render_table(
            ["variant", "pruned checks issued"],
            [
                ["staged (SQL4 then SQL5 as needed)", f"<= {pruned_total}"],
                ["unstaged (always check all)", unstaged_checks],
            ],
            title="Ablation: staged top-k evaluation (Section 5.1)",
        ),
    )
