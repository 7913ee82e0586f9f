"""TopologyStore, the offline AllTops computation, and pruning
(Sections 4.1-4.2): exception-table exactness and space accounting."""

from __future__ import annotations

import pytest

from repro.biozon import BiozonConfig, generate
from repro.core import (
    TopologyStore,
    apply_pruning,
    compute_alltops,
    suggest_threshold,
)
from repro.core.pruning import PruneReport
from repro.errors import TopologyError


@pytest.fixture(scope="module")
def built():
    ds = generate(BiozonConfig.tiny(seed=12))
    store, report = compute_alltops(
        ds.graph(), [("Protein", "DNA"), ("Protein", "Interaction")], 3
    )
    return ds, store, report


# The default suggestion prunes a few topologies; 5 prunes many,
# multi-class ones among them; 0 prunes every topology.
PRUNE_THRESHOLDS = [pytest.param(None, id="default"), 5, 0]


@pytest.fixture()
def pruned_store(built, threshold):
    ds, _, _ = built
    store, _ = compute_alltops(
        ds.graph(), [("Protein", "DNA"), ("Protein", "Interaction")], 3
    )
    apply_pruning(store, threshold)
    return store


def membership(store):
    """Pair -> the TIDs AllTops relates it by (its l-Top set)."""
    pair_tids = {}
    for e1, e2, tid in store.alltops_rows:
        pair_tids.setdefault((e1, e2), set()).add(tid)
    return pair_tids


class TestAllTops:
    def test_report_consistency(self, built):
        _, store, report = built
        assert report.alltops_rows == len(store.alltops_rows)
        assert report.distinct_topologies == len(store.topologies)
        assert report.pairs_related == len(store.pair_classes)

    def test_frequencies_sum_to_rows(self, built):
        _, store, _ = built
        assert sum(t.frequency for t in store.topologies.values()) == len(
            store.alltops_rows
        )

    def test_entity_pairs_scoped(self, built):
        _, store, _ = built
        for t in store.topologies.values():
            assert t.entity_pair in [("Protein", "DNA"), ("Protein", "Interaction")]

    def test_scores_computed(self, built):
        _, store, _ = built
        for t in store.topologies.values():
            assert set(t.scores) == {"freq", "rare", "domain"}

    def test_duplicate_pair_rejected(self, built):
        ds, store, _ = built
        with pytest.raises(TopologyError):
            compute_alltops(ds.graph(), [("Protein", "DNA"), ("Protein", "DNA")], 3)

    def test_record_after_finalize_rejected(self, built):
        _, store, _ = built
        with pytest.raises(TopologyError):
            store.record_pair(1, 2, ("Protein", "DNA"), frozenset(), {}, False)


class TestPruning:
    def test_lefttops_is_alltops_minus_pruned(self, built):
        ds, _, _ = built
        store, _ = compute_alltops(
            ds.graph(), [("Protein", "DNA"), ("Protein", "Interaction")], 3
        )
        report = apply_pruning(store)
        pruned = set(report.pruned_tids)
        assert store.lefttops_rows == [
            row for row in store.alltops_rows if row[2] not in pruned
        ]

    def test_pruned_are_most_frequent(self, built):
        ds, _, _ = built
        store, _ = compute_alltops(
            ds.graph(), [("Protein", "DNA"), ("Protein", "Interaction")], 3
        )
        report = apply_pruning(store)
        if not report.pruned_tids:
            pytest.skip("nothing pruned at this scale")
        min_pruned_freq = min(
            store.topologies[t].frequency for t in report.pruned_tids
        )
        max_kept_freq = max(
            (
                t.frequency
                for tid, t in store.topologies.items()
                if tid not in store.pruned_tids
            ),
            default=0,
        )
        assert min_pruned_freq > report.threshold >= 0
        assert max_kept_freq <= report.threshold

    @pytest.mark.parametrize("threshold", PRUNE_THRESHOLDS)
    def test_exception_semantics(self, pruned_store, threshold):
        """ExcpTops = pairs with the pruned topology's classes present
        but the topology absent from l-Top (Section 4.2.2's subtlety)."""
        store = pruned_store
        pair_tids = membership(store)
        for e1, e2, tid in store.excptops_rows:
            topology = store.topologies[tid]
            classes = store.pair_classes[(e1, e2)]
            assert frozenset(topology.class_signatures) <= classes
            assert tid not in pair_tids.get((e1, e2), set())

    @pytest.mark.parametrize("threshold", PRUNE_THRESHOLDS)
    def test_exceptions_complete(self, pruned_store, threshold):
        """Every pair that satisfies a pruned topology's path condition
        without being related by it must appear in ExcpTops."""
        store = pruned_store
        pair_tids = membership(store)
        excp = set(store.excptops_rows)
        assert store.pruned_tids
        for tid in store.pruned_tids:
            topology = store.topologies[tid]
            cs = frozenset(topology.class_signatures)
            for pair, classes in store.pair_classes.items():
                if store.pair_entity_types[pair] != topology.entity_pair:
                    continue
                if cs <= classes and tid not in pair_tids.get(pair, set()):
                    assert (pair[0], pair[1], tid) in excp

    def test_space_ratio(self, built):
        ds, _, _ = built
        store, _ = compute_alltops(
            ds.graph(), [("Protein", "DNA"), ("Protein", "Interaction")], 3
        )
        report = apply_pruning(store)
        assert 0.0 < report.space_ratio <= 1.0
        if report.pruned_tids:
            assert report.lefttops_rows < report.alltops_rows
            # Table 1's Ratio column: the exceptions (36 rows here) do
            # not erase what pruning saved (237).
            assert report.excptops_rows < report.alltops_rows - report.lefttops_rows

    def test_threshold_suggestion_bounds(self, built):
        _, store, _ = built
        threshold = suggest_threshold(store, max_pruned_fraction=0.05)
        pruned = [t for t in store.topologies.values() if t.frequency > threshold]
        assert len(pruned) <= max(1, int(len(store.topologies) * 0.05)) + 1

    def test_zero_threshold_prunes_everything_observed(self, built):
        ds, _, _ = built
        store, _ = compute_alltops(ds.graph(), [("Protein", "DNA")], 3)
        report = apply_pruning(store, threshold=0)
        assert store.lefttops_rows == []
        assert set(report.pruned_tids) == set(store.topologies)

    def test_huge_threshold_prunes_nothing(self, built):
        ds, _, _ = built
        store, _ = compute_alltops(ds.graph(), [("Protein", "DNA")], 3)
        report = apply_pruning(store, threshold=10**9)
        assert report.pruned_tids == ()
        assert store.lefttops_rows == store.alltops_rows
        assert store.excptops_rows == []

    def test_negative_threshold_rejected(self, built):
        ds, _, _ = built
        store, _ = compute_alltops(ds.graph(), [("Protein", "DNA")], 3)
        with pytest.raises(TopologyError):
            apply_pruning(store, threshold=-1)


class TestMaterialization:
    def test_tables_created(self, tiny_system):
        db = tiny_system.database
        for name in ("TopInfo", "AllTops", "LeftTops", "ExcpTops"):
            assert db.has_table(name)

    def test_topinfo_rows_match_store(self, tiny_system):
        store = tiny_system.require_store()
        topinfo = tiny_system.database.table("TopInfo")
        assert topinfo.row_count == len(store.topologies)

    def test_score_indexes_exist(self, tiny_system):
        topinfo = tiny_system.database.table("TopInfo")
        for scheme in ("SCORE_FREQ", "SCORE_RARE", "SCORE_DOMAIN"):
            assert topinfo.sorted_index_on(scheme) is not None

    def test_pruned_flag_matches(self, tiny_system):
        store = tiny_system.require_store()
        topinfo = tiny_system.database.table("TopInfo")
        pruned_pos = topinfo.schema.column_position("PRUNED")
        tid_pos = topinfo.schema.column_position("TID")
        for row in topinfo.rows:
            assert row[pruned_pos] == (row[tid_pos] in store.pruned_tids)

    def test_space_report(self, tiny_system):
        report = tiny_system.require_store().space_report()
        assert report["AllTops"] >= report["LeftTops"]
        assert report["TopInfo"] > 0
